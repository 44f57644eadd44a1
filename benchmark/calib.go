package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared virtual machines whose speed
// drifts by 10-30 % over tens of seconds (neighbours contending for memory
// and for the sibling hyperthread). A median over a 20 s run moves with
// that drift, so raw wall time cannot carry a regression bound tighter than
// the drift itself. (Every unit is single-threaded for the same reason: one
// that keeps both vCPUs busy is at the hypervisor's mercy, see campaign.go.) The hostClock measures the drift as it happens: a fixed
// kernel — a dependent pointer chase through a 64 MiB permutation, every
// step a cache and TLB miss like the simulator's own pointer-rich state —
// is timed between every two units, and each unit's wall time is divided by
// how much slower than quietNsPerStep the kernel ran around it. The kernel
// is the benchmark's own code: a change to the simulator cannot move it, so
// parent and change are still compared on equal terms; what cancels is the
// host. README "Calibrated time" has the measurements behind this.
const (
	// chaseWords is the permutation's length: 64 MiB of uint32, several
	// times the last-level cache.
	chaseWords = 1 << 24
	// A sample is the median of chaseRounds stretches of chaseSteps loads,
	// about 14 ms in all on a quiet reference host; the median drops the
	// stretch a scheduler tick or an interrupt landed in.
	chaseSteps  = 20_000
	chaseRounds = 5
	// quietNsPerStep is the kernel's cost on the reference host (2-vCPU
	// Xeon 2.1 GHz VM) when nothing else contends: the first percentile of
	// a minute of samples on the idle host (minimum 136, median 165). On
	// another host type it only rescales every time metric by one constant.
	quietNsPerStep = 140.0
)

// hostClock owns the calibration kernel's buffer. It is mapped outside the
// Go heap so that it neither moves the garbage collector's pacing nor is
// scanned, and its size is subtracted from the reported peak RSS.
type hostClock struct {
	perm []uint32
	raw  []byte
	at   uint32
	// last is the most recent sample: one sample sits between every two
	// units and serves both.
	last float64
}

func newHostClock() (*hostClock, error) {
	raw, err := syscall.Mmap(-1, 0, chaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping calibration buffer: %w", err)
	}
	perm := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), chaseWords)
	// A full-period linear congruential map (c odd, a ≡ 1 mod 4) is one
	// cycle through all words in an order no prefetcher follows, and it
	// fills sequentially without a scratch permutation on the heap.
	for i := range perm {
		perm[i] = (uint32(i)*1664525 + 1013904223) & (chaseWords - 1)
	}
	c := &hostClock{perm: perm, raw: raw}
	c.last = c.sample()
	return c, nil
}

func (c *hostClock) close() error { return syscall.Munmap(c.raw) }

// bufferMB is what the clock adds to the process's resident set.
func (c *hostClock) bufferMB() float64 { return float64(len(c.raw)) / (1 << 20) }

// slowdownSince samples the kernel and returns the host's slowdown over
// whatever ran since the previous sample: the mean of the two samples on
// either side of it.
func (c *hostClock) slowdownSince() float64 {
	before := c.last
	c.last = c.sample()
	return (before + c.last) / 2
}

// sample runs the chase and returns how many times slower than the quiet
// reference host it ran (1 = quiet).
func (c *hostClock) sample() float64 {
	var rounds [chaseRounds]float64
	at := c.at
	for r := range rounds {
		t := time.Now()
		for range chaseSteps {
			at = c.perm[at]
		}
		rounds[r] = float64(time.Since(t))
	}
	c.at = at
	return median(rounds[:]) / chaseSteps / quietNsPerStep
}
