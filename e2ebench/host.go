package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares a 2-vCPU VM with other tenants, and how fast that
// host runs the same code drifts: over a 300 s run of infer, 10 s windows
// differed by up to 30%, and whole 30 s runs of one workload differed by
// 35-50% within ten minutes. A statistic of the op latencies alone
// cannot remove a slowdown that lasts a whole run. So the benchmark also
// times a fixed host kernel between ops, code that depends on nothing in
// the transit module, and divides every end-to-end time by the host
// index: the kernel's mean time over the same phase relative to
// refKernel, raised to indexExponent.
//
// The kernel has three parts, chosen from seven candidates (map lookups
// and inserts, pointer chasing and smaller tables were the others) by how
// well their sum tracked the ops' times across runs on that VM: integer
// arithmetic, random reads and writes over a 32 MiB table, and a sort of
// random integers. On ten runs of each workload whose raw pass time
// spread (IQR/median) 14%, 10% and 15%, dividing by this sum brought
// infer, casestudy and check to 3%, 6% and 6%.
//
// refKernel is about the kernel's mean time on that VM, so an index of 1
// leaves times as measured there. It is a fixed scale, not a
// measurement: change it only with the kernel.
const refKernel = 1100 * time.Microsecond

// indexExponent is how much more the ops slow than the kernel. Fitting
// log(pass time) against log(kernel time) over two sets of ten 30 s runs
// of each workload on that VM gave slopes from 1.45 to 2.25. Divided by
// the plain kernel ratio, the times of the same code still spread 4-11%
// (IQR/median) and were longest where the kernel was slowest; divided by
// the ratio to the power 1.5, they spread 3-6% on every workload in both
// sets. 1.5 is at the low end of the fits, so where the ops and the
// kernel slow alike it over-corrects only a little.
const indexExponent = 1.5

// kernelShare is the kernel time to spend per unit of op time: at least
// one kernel before every op, and more before long ops, so the index
// weighs the host's speed over a phase as the ops' times do.
const kernelShare = 0.02

const (
	kernelALUSteps = 60_000
	kernelMemSteps = 2000
	kernelSortLen  = 4096
	// kernelTableBytes is the random-access table, 32 MiB: far beyond a
	// core's L2 cache, so its accesses go to the shared L3 cache and
	// memory that the other tenants contend for.
	kernelTableBytes = 32 << 20
)

// hostKernel is the kernel's state. Its table lives outside the Go heap,
// so it does not move the collector's pacing of the ops, and every page
// of it is resident from the start, so peak_rss_mb can leave it out
// exactly. The process keeps it until it exits.
type hostKernel struct {
	table  []uint64
	sorted []uint64
	sink   uint64
}

func newHostKernel() (*hostKernel, error) {
	b, err := syscall.Mmap(-1, 0, kernelTableBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host kernel's table: %w", err)
	}
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	for i := range table {
		table[i] = uint64(i)
	}
	return &hostKernel{table: table, sorted: make([]uint64, kernelSortLen)}, nil
}

// run times the kernel once. It does not allocate, so the garbage the
// ops leave does not slow it.
func (k *hostKernel) run() time.Duration {
	t0 := time.Now()
	y := k.sink | 1
	for i := 0; i < kernelALUSteps; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		y ^= y >> 13
	}
	n := uint64(len(k.table))
	for i := 0; i < kernelMemSteps; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		j := (y >> 20) % n
		k.table[j] += y
		y ^= k.table[(j*7)%n]
	}
	for i := range k.sorted {
		y = y*6364136223846793005 + 1442695040888963407
		k.sorted[i] = y >> 7
	}
	slices.Sort(k.sorted)
	k.sink = y + k.sorted[len(k.sorted)/2]
	return time.Since(t0)
}

// hostMeter accumulates the kernel's times over one phase of a run.
type hostMeter struct {
	k      *hostKernel
	kernel time.Duration // total kernel time
	runs   int
	opTime time.Duration // op time the kernel has been matched to
}

func (k *hostKernel) meter() *hostMeter { return &hostMeter{k: k} }

// before runs the kernel ahead of an op: once, and again until the
// kernel time reaches kernelShare of the op time recorded so far.
func (h *hostMeter) before() {
	for first := true; first || float64(h.kernel) < kernelShare*float64(h.opTime); first = false {
		h.kernel += h.k.run()
		h.runs++
	}
}

// after records an op's time.
func (h *hostMeter) after(d time.Duration) { h.opTime += d }

// index is the kernel's mean time relative to refKernel, raised to
// indexExponent: above 1 the host ran slower than the reference, below 1
// faster.
func (h *hostMeter) index() float64 {
	if h.runs == 0 {
		return 1
	}
	return math.Pow(float64(h.kernel)/float64(h.runs)/float64(refKernel), indexExponent)
}
