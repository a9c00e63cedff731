//go:build unix

package main

import "syscall"

// newCalTable maps the calibration table outside the Go heap. On the
// heap its 64 MiB would count towards the collector's heap goal and the
// timed units would see a thirtieth of the collections they cause in
// any other process (mission_classic: 1.5 a unit instead of 44).
func newCalTable() []byte {
	t, err := syscall.Mmap(-1, 0, calTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, calTableBytes)
	}
	return t
}
