package rlnc

import (
	"runtime"
	"sync"
)

// Pool is a persistent worker pool for the host codec. The seed code spawned
// a fresh goroutine set (and WaitGroup) per coded block or per Encode call;
// the pool keeps its workers parked on a channel instead, so a dispatch
// costs one channel send per task rather than a goroutine spawn, and each
// worker carries reusable scratch storage across tasks.
//
// Determinism is preserved by construction: tasks are identified by index
// and write disjoint output regions, so results do not depend on which
// worker executes which task or in what order.
type Pool struct {
	workers int
	jobs    chan poolJob
	close   sync.Once
}

type poolJob struct {
	fn func(i int, s *Scratch)
	i  int
	wg *sync.WaitGroup
}

// Scratch is reusable codec workspace. Each pool worker goroutine owns
// exactly one Scratch for its lifetime, and decoders draw one from the
// process-wide scratch pool (see GetScratch), so holders may use it freely
// without synchronization; contents are undefined at task entry.
type Scratch struct {
	buf    []byte
	dsts   [][]byte
	coeffs [][]byte
	ints   []int
}

// Bytes returns an n-byte workspace, growing the backing array as needed.
// Contents are unspecified.
func (s *Scratch) Bytes(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// indices returns an n-int workspace, growing it as needed; the GF(2) decode
// path keeps its pivot lists there. Contents are unspecified.
func (s *Scratch) indices(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

// rowViews returns two reusable row-header slices of length n, used by the
// encode paths and the decoder's reconstruction multiply to assemble batch
// views without per-dispatch allocation.
func (s *Scratch) rowViews(n int) (dsts, coeffs [][]byte) {
	if cap(s.dsts) < n {
		s.dsts = make([][]byte, n)
		s.coeffs = make([][]byte, n)
	}
	return s.dsts[:n], s.coeffs[:n]
}

// NewPool starts a pool with the given worker count; workers ≤ 0 selects
// GOMAXPROCS. The workers live until Close.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, jobs: make(chan poolJob)}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	s := &Scratch{}
	for j := range p.jobs {
		j.fn(j.i, s)
		j.wg.Done()
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Dispatch runs fn(i, scratch) for every i in [0, n) across the pool's
// workers and returns when all calls have completed. Tasks beyond the worker
// count queue and run as workers free up. fn must not call Dispatch on the
// same pool (workers executing fn cannot drain the nested tasks).
func (p *Pool) Dispatch(n int, fn func(i int, s *Scratch)) {
	if n == 1 {
		// Single task: run on the caller, no channel round-trip. A fresh
		// Scratch keeps the contract (exclusive ownership) without touching
		// worker state.
		fn(0, &Scratch{})
		return
	}
	var wg sync.WaitGroup
	p.dispatch(&wg, n, fn)
}

// dispatch is Dispatch on the workers alone, waiting on the caller's group: a
// caller that dispatches batch after batch keeps one instead of allocating one
// per call.
func (p *Pool) dispatch(wg *sync.WaitGroup, n int, fn func(i int, s *Scratch)) {
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{fn: fn, i: i, wg: wg}
	}
	wg.Wait()
}

// Close terminates the workers. Dispatch must not be called after Close.
func (p *Pool) Close() {
	p.close.Do(func() { close(p.jobs) })
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide codec pool (GOMAXPROCS workers),
// started on first use and never closed. The parallel encoder and decoder
// dispatch through it by default, so every ParallelEncoder/Decode call in
// the process shares one warm worker set.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// scratchPool recycles Scratch values across decoders, complementing the
// per-worker Scratch that pool workers own: a decoder draws its coefficient
// plane and payload slab from here at its first dense arrival and returns
// them at rank n, so a fetch decoding segment after segment reuses one warm
// workspace instead of allocating n·k bytes per segment.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch draws a reusable workspace from the process-wide scratch pool.
// Contents are undefined.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a workspace to the pool. The caller must not retain
// any slice obtained from it afterwards.
func PutScratch(s *Scratch) { scratchPool.Put(s) }
