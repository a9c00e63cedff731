// Jamgame: electronic warfare as a zero-sum game (paper §IV.A's
// "game theoretic foundations" in miniature). A blue link hops among
// radio channels while an adaptive jammer studies its habits and jams
// the most likely channel. A fixed-channel policy is annihilated; the
// fictitious-play equilibrium mix guarantees the game value no matter
// how smart the jammer is — more channels dilute the jammer further.
//
//	go run ./examples/jamgame
package main

import (
	"fmt"

	"iobt/internal/game"
	"iobt/internal/sim"
)

func main() {
	rng := sim.NewRNG(5)

	for _, channels := range []int{3, 8} {
		m := game.JammingGame(channels) // a jammed channel delivers nothing
		eq := game.FictitiousPlay(m, rng.Derive("fp"))
		fmt.Printf("%d channels: equilibrium value %.3f (exploitability %.4f)\n",
			channels, eq.Value, eq.Exploitability)

		fixed := playRounds(rng, m, func(int) int { return 0 }) // never hops
		hopper := playRounds(rng, m, func(int) int { return sample(rng, eq.RowMix) })
		fmt.Printf("  vs adaptive jammer: fixed-channel throughput %.3f, equilibrium hopper %.3f\n",
			fixed, hopper)
	}
	fmt.Println("\nthe hopper achieves the game value against any jammer; the fixed channel is annihilated")
}

// playRounds runs 4000 rounds of defender policy vs an adaptive jammer
// that jams the defender's historically most-used channel, and returns
// the mean throughput.
func playRounds(rng *sim.RNG, m *game.Matrix, policy func(round int) int) float64 {
	counts := make([]int, m.Cols())
	total := 0.0
	const rounds = 4000
	for r := 0; r < rounds; r++ {
		ch := policy(r)
		jam := argmax(counts)
		total += m.Payoff[ch][jam]
		counts[ch]++
	}
	return total / rounds
}

func argmax(v []int) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func sample(rng *sim.RNG, mix []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range mix {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(mix) - 1
}
