// Package par holds the small deterministic fan-out primitives shared
// by routing's net prep and the parallel placement engines: contiguous
// index chunking with one goroutine per worker, worker-count
// resolution, and aggregate busy-time accounting feeding the placer's
// worker-utilization gauge.
//
// Determinism is the caller's contract: workers must write only to
// disjoint state (distinct slice elements, per-worker scratch), and
// any floating-point reduction must be replayed in a fixed order after
// the barrier — never summed per-chunk. Every engine built on this
// package keeps a pure serial reference path (workers == 1) that the
// equivalence tests compare against bit-for-bit.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"macro3d/internal/obs/trace"
)

// Workers resolves a requested worker count: n <= 0 selects
// GOMAXPROCS (use every available CPU), anything else is returned
// unchanged. 1 means the serial reference path.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Chunks splits [0, n) into at most `workers` contiguous chunks and
// runs fn(worker, lo, hi) concurrently, one goroutine per chunk. The
// worker index is dense in [0, workers) so callers can address
// per-worker scratch. With workers <= 1 or n <= 1 fn runs inline as
// fn(0, 0, n) — no goroutines, the serial reference path.
//
// The returned duration is the summed busy time across workers
// (inline runs report their wall time), for utilization metrics.
func Chunks(workers, n int, fn func(w, lo, hi int)) time.Duration {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		t0 := time.Now()
		fn(0, 0, n)
		return time.Since(t0)
	}
	chunk := (n + workers - 1) / workers
	var busy atomic.Int64
	var wg sync.WaitGroup
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t0 := time.Now()
			fn(w, lo, hi)
			busy.Add(int64(time.Since(t0)))
		}(w, lo, hi)
		w++
	}
	wg.Wait()
	return time.Duration(busy.Load())
}

// Items runs fn(worker, i) for every i in [0, n) using Chunks — the
// per-item convenience form.
func Items(workers, n int, fn func(w, i int)) time.Duration {
	return Chunks(workers, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(w, i)
		}
	})
}

// ChunksTr is Chunks with execution tracing: each chunk records one
// slice named `name` on worker w's track, all stamped with a fresh
// fork-join step id, with the chunk size attached. A nil Set falls
// straight through to Chunks — one pointer comparison, so the traced
// call sites stay on the engines' hot paths unconditionally. Tracing
// wraps fn without reordering or altering it, preserving the
// bit-identical-results contract.
func ChunksTr(ts *trace.Set, name string, workers, n int, fn func(w, lo, hi int)) time.Duration {
	if ts == nil {
		return Chunks(workers, n, fn)
	}
	ts.NextStep()
	return Chunks(workers, n, func(w, lo, hi int) {
		sp := ts.Begin(w, name)
		fn(w, lo, hi)
		sp.End(trace.N("items", int64(hi-lo)))
	})
}

// ItemsTr is Items with execution tracing; see ChunksTr.
func ItemsTr(ts *trace.Set, name string, workers, n int, fn func(w, i int)) time.Duration {
	if ts == nil {
		return Items(workers, n, fn)
	}
	ts.NextStep()
	return Chunks(workers, n, func(w, lo, hi int) {
		sp := ts.Begin(w, name)
		for i := lo; i < hi; i++ {
			fn(w, i)
		}
		sp.End(trace.N("items", int64(hi-lo)))
	})
}
