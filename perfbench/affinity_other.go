//go:build !linux

package main

// allowedCPUs reports no CPUs where affinity is not supported: iterations
// then run wherever the scheduler puts them.
func allowedCPUs() []int { return nil }

func pinProcess(int) {}
