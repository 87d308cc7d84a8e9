package netsim

// ChurnDriver runs the Theorem-2 trial pipeline's operational churn
// against a route.Engine, one op at a time: with probability 1/2 (always
// when no circuit is live, never when every input is busy) connect a
// uniformly chosen idle input to a uniformly chosen idle output, otherwise
// release a uniformly chosen live circuit. Each connect op is one
// single-request Engine.ConnectBatch, so a strictly nonblocking repaired
// network must accept every one of them — the per-op test Theorem 2
// states. Like Workload above, the driver owns the idle/live bookkeeping;
// unlike Workload's free-form operational stream, it replays this fixed
// protocol.
//
// The RNG draws of op t+1 depend only on the decisions of ops ≤ t, so any
// two engines with sequential-router semantics (route.Router,
// route.ShardedEngine) give the same (connects, failures, pathTotal), the
// same path for every circuit and the same final RNG state on the same
// RNG — Theorem-2 probability tables cannot depend on the engine.
//
// Between trials the caller advances the fault epoch before calling Run:
// apply the trial's diff through core.MaskUpdater and notify the engine —
// Engine.MasksChangedDiff with the updater's changed vertex/edge lists on
// the incremental path, or Engine.MasksChanged as the full-sweep fallback.
// Either notification yields bit-identical guides and hence bit-identical
// churn decisions (route's incremental-guide differentials); the driver
// itself never touches masks.

import (
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// ChurnDriver holds the generator state and scratch; the zero value is
// ready to use and Run re-initializes the pools per call, so one driver
// serves many trials (and many networks) without allocating in steady
// state. Not safe for concurrent use.
type ChurnDriver struct {
	idleIn  []int32
	idleOut []int32
	live    []liveCircuit

	req [1]route.Request
	res []route.Result
}

// Run drives eng with ops operations of the coin-flip churn protocol over
// the given terminal sets and returns the number of attempted connects,
// failed connects, and the summed path length of the successes. The
// engine must start with no live circuit on these terminals; circuits
// left live at the end belong to the caller (typically released by the
// next trial's engine Reset).
//
//ftcsn:hotpath the per-trial churn serve loop; runs once per trial inside the 0-alloc pipeline
func (cd *ChurnDriver) Run(eng route.Engine, inputs, outputs []int32, ops int, r *rng.RNG) (connects, failures, pathTotal int) {
	cd.live = cd.live[:0]
	cd.idleIn = append(cd.idleIn[:0], inputs...)
	cd.idleOut = append(cd.idleOut[:0], outputs...)
	for op := 0; op < ops; op++ {
		// Short-circuit order matters: it decides whether a coin is consumed.
		doConnect := len(cd.live) == 0 || (len(cd.idleIn) > 0 && r.Bernoulli(0.5))
		if doConnect && len(cd.idleIn) > 0 && len(cd.idleOut) > 0 {
			ii := r.Intn(len(cd.idleIn))
			oo := r.Intn(len(cd.idleOut))
			in, out := cd.idleIn[ii], cd.idleOut[oo]
			connects++
			cd.req[0] = route.Request{In: in, Out: out}
			cd.res = eng.ConnectBatch(cd.req[:], cd.res)
			path := cd.res[0].Path
			if path == nil {
				failures++
				continue
			}
			pathTotal += len(path) - 1
			cd.idleIn[ii] = cd.idleIn[len(cd.idleIn)-1]
			cd.idleIn = cd.idleIn[:len(cd.idleIn)-1]
			cd.idleOut[oo] = cd.idleOut[len(cd.idleOut)-1]
			cd.idleOut = cd.idleOut[:len(cd.idleOut)-1]
			cd.live = append(cd.live, liveCircuit{in, out})
		} else if len(cd.live) > 0 {
			ci := r.Intn(len(cd.live))
			c := cd.live[ci]
			if err := eng.Disconnect(c.in, c.out); err == nil {
				cd.idleIn = append(cd.idleIn, c.in)
				cd.idleOut = append(cd.idleOut, c.out)
			}
			cd.live[ci] = cd.live[len(cd.live)-1]
			cd.live = cd.live[:len(cd.live)-1]
		}
	}
	return connects, failures, pathTotal
}
