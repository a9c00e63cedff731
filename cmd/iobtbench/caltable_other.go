//go:build !unix

package main

// newCalTable has no portable way off the Go heap: here the table
// counts towards the collector's heap goal and the timed units collect
// less often than they would without it.
func newCalTable() []byte { return make([]byte, calTableBytes) }
