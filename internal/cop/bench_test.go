package cop

// Codec micro-benchmarks on gossip_cop's frame shape. Two are rows of
// `benchtab -bench` (cop_merge, cop_encode), which runs them with
// `go test -bench` and gates them against BENCH_MICRO.json: this file
// is their only copy.

import "testing"

// BenchmarkMergeEncodedDominated is the cop_merge row: the gossip_cop
// steady state, a 54-track/54-cell frame folded into a replica that
// already holds all of it.
func BenchmarkMergeEncodedDominated(b *testing.B) {
	p, frame := gossipFrame(54)
	if err := p.MergeEncoded(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MergeEncoded(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeEncodedGrowing folds the same frame into an empty
// replica: every record is an insertion.
func BenchmarkMergeEncodedGrowing(b *testing.B) {
	_, frame := gossipFrame(54)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewPicture(1).MergeEncoded(frame); err != nil {
			b.Fatal(err)
		}
	}
}

var encoded []byte

// BenchmarkEncode is the cop_encode row.
func BenchmarkEncode(b *testing.B) {
	p, _ := gossipFrame(54)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded = p.Encode()
	}
}
