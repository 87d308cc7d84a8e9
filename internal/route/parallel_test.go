package route_test

// Tests for the multi-core serving path of route.ShardedEngine: the
// persistent phase workers, the conflict-free parallel commit, and the
// constructor's shard-count validation. Everything here pins GOMAXPROCS>1
// so the parallel phases genuinely interleave instead of degenerating to
// cooperative scheduling on a 1-P runner (the CI race job additionally
// runs this package with GOMAXPROCS=4).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// pinProcs forces GOMAXPROCS=n for the duration of the test, restoring
// the previous value on cleanup.
func pinProcs(tb testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestShardedParallelCommitMatchesSequential is the path-level
// differential for batches large enough to engage the persistent workers
// and the disjoint parallel commit: n=64 saturation churn, shard counts
// whose fan-out threshold the first full batch clears, decisions AND
// paths compared against the sequential Router request by request. The
// ParallelBatches/DisjointCommits assertions keep the test honest — if a
// future threshold change stops the parallel phases from engaging, the
// differential must fail loudly instead of silently testing the serial
// walk again.
func TestShardedParallelCommitMatchesSequential(t *testing.T) {
	pinProcs(t, 4)
	nw := buildNet(t, 3)
	n := len(nw.Inputs())
	for _, eps := range []float64{0, 0.03} {
		m := repairedMasks(t, nw, eps, 0x9A7+uint64(eps*1000))
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("eps=%g/shards=%d", eps, shards), func(t *testing.T) {
				rt := route.NewRouter(nw.G)
				rt.EnablePathReuse()
				se := route.NewShardedEngine(nw.G, shards)
				defer se.Close()
				if eps > 0 {
					rt.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
					se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
				}
				d := &churnDiff{t: t, rt: rt, se: se,
					wl: netsim.NewWorkload(nw.Inputs(), nw.Outputs(), 0xBA7C4+uint64(shards))}
				for round := 0; round < 25; round++ {
					d.round(n, n/3+1)
				}
				if err := se.VerifyState(); err != nil {
					t.Fatal(err)
				}
				if d.accepts == 0 {
					t.Fatal("workload never accepted a circuit; differential is vacuous")
				}
				st := se.ShardedStats()
				if st.ParallelBatches == 0 {
					t.Fatal("no batch engaged the persistent workers; parallel phases untested")
				}
				if st.DisjointCommits == 0 {
					t.Fatal("no circuit took the conflict-free parallel commit; disjoint path untested")
				}
			})
		}
	}
}

// TestShardedWorkersPersistAcrossBatches checks the handoff economics the
// tentpole promises: the first parallel batch parks S-1 worker goroutines
// on the engine's channel, subsequent batches reuse them (no per-batch
// spawn), Close stops them idempotently, and the next parallel batch
// lazily restarts them.
func TestShardedWorkersPersistAcrossBatches(t *testing.T) {
	pinProcs(t, 4)
	nw := buildNet(t, 3)
	n := len(nw.Inputs())
	perm := rng.New(11).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	const shards = 4
	se := route.NewShardedEngine(nw.G, shards)
	var res []route.Result
	serve := func() {
		res = se.ServeBatch(reqs, res)
		for _, r := range res {
			if r.Path != nil {
				if err := se.Disconnect(r.In, r.Out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	base := runtime.NumGoroutine()
	serve()
	afterFirst := runtime.NumGoroutine()
	if afterFirst < base+shards-1 {
		t.Fatalf("first parallel batch should leave %d workers parked: %d -> %d goroutines",
			shards-1, base, afterFirst)
	}
	for i := 0; i < 10; i++ {
		serve()
	}
	if g := runtime.NumGoroutine(); g > afterFirst {
		t.Errorf("goroutine count grew across batches (%d -> %d); workers are being respawned",
			afterFirst, g)
	}

	se.Close()
	se.Close() // idempotent
	waitGoroutines(t, base)

	// Close retires the workers, not the engine: the next large batch
	// restarts them and serving continues.
	serve()
	if g := runtime.NumGoroutine(); g < base+shards-1 {
		t.Errorf("post-Close batch should restart the workers: %d goroutines, want >= %d",
			g, base+shards-1)
	}
	if err := se.VerifyState(); err != nil {
		t.Fatal(err)
	}
	se.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count drops back to at most
// want (worker exit after channel close is asynchronous).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("workers did not exit: %d goroutines, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedParallelServeBatchAllocFree extends the zero-allocation gate
// to batches that run the persistent-worker fan-out and the disjoint
// parallel commit: once the workers are up and scratch is warm, a full
// parallel batch must allocate nothing anywhere in the process (the
// harness counts mallocs globally, so worker-side allocations are seen).
func TestShardedParallelServeBatchAllocFree(t *testing.T) {
	pinProcs(t, 4)
	nw := buildNet(t, 3)
	se := route.NewShardedEngine(nw.G, 4)
	defer se.Close()
	n := len(nw.Inputs())
	perm := rng.New(5).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	res := make([]route.Result, 0, n)
	work := func() {
		res = se.ServeBatch(reqs, res)
		for _, r := range res {
			if r.Path != nil {
				if err := se.Disconnect(r.In, r.Out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		work() // warm pools, arenas, and the worker channel
	}
	if st := se.ShardedStats(); st.ParallelBatches == 0 {
		t.Fatal("warm-up batches never engaged the workers; gate is vacuous")
	}
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Errorf("steady-state parallel ServeBatch allocated %.1f times per batch", avg)
	}
}

// TestNewShardedEnginePanicsOnNonPositiveShards locks the constructor
// contract: a non-positive shard count is a caller bug and must not be
// silently clamped to sequential serving.
func TestNewShardedEnginePanicsOnNonPositiveShards(t *testing.T) {
	nw := buildNet(t, 1)
	for _, shards := range []int{0, -1, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardedEngine(g, %d) did not panic", shards)
				}
			}()
			route.NewShardedEngine(nw.G, shards)
		}()
	}
}
