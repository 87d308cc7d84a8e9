package core

import (
	"ftcsn/internal/arena"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// TrialOutcome is the result of one end-to-end Theorem-2 trial on a
// materialized Network 𝒩: inject faults, apply the discard repair, check
// the paper's failure witnesses and the majority-access certificate, then
// exercise the repaired network with greedy routing churn.
type TrialOutcome struct {
	FailedSwitches int
	OpenSwitches   int
	ClosedSwitches int

	// Shorted: two terminals contracted through closed switches (Lemma 7's
	// event — if it occurs the instance cannot contain a nonblocking
	// n-network with n distinct terminals).
	Shorted bool
	// MajorityAccess: the Lemma-6 certificate on the repaired network; it
	// is sufficient for the repaired network to be strictly nonblocking.
	MajorityAccess bool
	// MinInputAccess / MinOutputAccess are the worst terminal access
	// counts toward the middle stage (diagnostic for Lemma 3/6 margins).
	MinInputAccess  int
	MinOutputAccess int

	// Churn statistics: every connect on a strictly nonblocking network
	// must succeed, so ChurnFailures > 0 falsifies nonblockingness
	// operationally.
	ChurnConnects  int
	ChurnFailures  int
	ChurnPathTotal int // summed path lengths (switch counts) of successes

	// Success is the overall Theorem-2 event: no terminals shorted, the
	// majority-access certificate holds, and churn never blocked.
	Success bool
}

// AvgPathLen returns the mean established-path length in switches.
func (t TrialOutcome) AvgPathLen() float64 {
	if t.ChurnConnects == 0 {
		return 0
	}
	ok := t.ChurnConnects - t.ChurnFailures
	if ok == 0 {
		return 0
	}
	return float64(t.ChurnPathTotal) / float64(ok)
}

// Evaluator owns every per-trial buffer of the Theorem-2 pipeline — fault
// instance, witness scratch, repair masks, access checker, majority report,
// pooled router, and churn scratch — so repeated trials on one network
// allocate nothing in steady state. It is the Monte-Carlo fast path: give
// each worker its own Evaluator (montecarlo.RunBoolWith / RunWith) and call
// EvaluateInto per trial. An Evaluator is not safe for concurrent use.
type Evaluator struct {
	nw    *Network
	inst  *fault.Instance
	fsc   *fault.Scratch
	masks Masks
	ac    *AccessChecker
	rep   MajorityReport
	rt    *route.Router
	r     rng.RNG

	// Churn engine seam: the batched pipeline (EvaluateNextInto) drives
	// its churn phase through eng — by default the evaluator's own
	// sequential router, swappable for any route.Engine with
	// sequential-batch semantics via SetChurnEngine (the sharded engine's
	// guided probes make n=64 trials markedly faster; decisions and paths
	// are bit-identical either way). cd runs the per-op churn protocol;
	// engDirty tracks whether the shared traversal bytes were edited in
	// place since the engine last derived state from them.
	eng      route.Engine
	cd       netsim.ChurnDriver
	engDirty bool

	// Accumulated change lists for the engine's incremental refresh
	// (route.Engine.MasksChangedDiff): every mu.Apply between engine
	// notifications merges its flipped vertices and recomputed edges here,
	// epoch-deduplicated, so the diff handed to the engine covers every
	// byte edit since it last derived state — across as many trials as the
	// churn phase skips. The lists are arena-backed at full nV/nE capacity
	// (dedup bounds their length), so accumulation never allocates.
	// pendFull marks an edit recorded without its lists (the
	// certificate-only path, which never pays churn and so never tracks);
	// the next churn phase then falls back to the full MasksChanged.
	pendV, pendE     []int32
	pendVEp, pendEEp []uint32
	pendEpoch        uint32
	pendFull         bool

	// Batched-block engine: the injector advances inst between trials by
	// diffs, the mask updater keeps masks (and the engines' shared view of
	// them) current from those diffs, and synced tracks whether the
	// inst/masks/engine triple is in that incrementally-maintained state.
	batch  *fault.BatchInjector
	mu     *MaskUpdater
	synced bool

	// Pool bookkeeping (see EvaluatorPool): the arena backing this
	// evaluator's buffers, returned by Release.
	pool *EvaluatorPool
	a    *arena.Arena
}

// NewEvaluator returns a reusable trial evaluator for nw.
func NewEvaluator(nw *Network) *Evaluator { return NewEvaluatorIn(nw, nil) }

// NewEvaluatorIn is NewEvaluator drawing every O(V)/O(E) buffer from a
// (nil a allocates normally) — the pooled form behind EvaluatorPool. The
// repair masks and traversal bytes are pre-sized here so the lazy
// grow-on-first-use paths never allocate behind the arena's back.
func NewEvaluatorIn(nw *Network, a *arena.Arena) *Evaluator {
	rt := route.NewRouterIn(nw.G, a)
	rt.EnablePathReuse()
	ev := &Evaluator{
		nw:    nw,
		inst:  fault.NewInstanceIn(nw.G, a),
		fsc:   fault.NewScratchIn(nw.G, a),
		ac:    NewAccessCheckerIn(nw, a),
		rt:    rt,
		batch: fault.NewBatchInjectorIn(nw.G, a),
		mu:    NewMaskUpdaterIn(nw.G, a),
	}
	ev.eng = rt
	nV, nE := nw.G.NumVertices(), nw.G.NumEdges()
	ev.masks.VertexOK = a.Bools(nV)
	ev.masks.EdgeOK = a.Bools(nE)
	ev.masks.OutAllowed = a.Bytes(nE)
	ev.masks.InAllowed = a.Bytes(nE)
	ev.pendV = a.I32(nV)[:0]
	ev.pendE = a.I32(nE)[:0]
	ev.pendVEp = a.U32(nV)
	ev.pendEEp = a.U32(nE)
	ev.pendEpoch = 1
	return ev
}

// SetChurnEngine replaces the engine the batched pipeline's churn phase
// runs on (default: the evaluator's sequential router). The engine must
// be over the evaluator's graph and have sequential-batch semantics
// (route.Router, route.ShardedEngine) for outcomes to stay bit-identical;
// it is adopted lazily — the next StartBlock hands it the shared masks.
// On a pooled evaluator the engine borrows arena-backed mask slices, so
// Release detaches them (SetMasksShared(nil, nil, nil)): using the engine
// after the evaluator's Release fails loudly instead of reading recycled
// memory.
func (ev *Evaluator) SetChurnEngine(eng route.Engine) {
	ev.eng = eng
	ev.synced = false
}

// Evaluate runs one trial seeded like Network.Evaluate: switch states and
// churn randomness both come from rng.New(seed). Results are bit-for-bit
// identical to Network.Evaluate for the same arguments.
func (ev *Evaluator) Evaluate(m fault.Model, seed uint64, churnOps int) TrialOutcome {
	ev.r.Reseed(seed)
	var out TrialOutcome
	ev.EvaluateInto(&out, m, &ev.r, churnOps)
	return out
}

// EvaluateInto runs one trial with caller-supplied randomness, writing the
// outcome into out. It redraws the evaluator's fault instance in place,
// repairs, certifies, and (for churnOps > 0) drives greedy churn on the
// evaluator's pooled router — all without allocating.
func (ev *Evaluator) EvaluateInto(out *TrialOutcome, m fault.Model, r *rng.RNG, churnOps int) {
	ev.synced = false
	fault.InjectInto(ev.inst, m, r)
	ev.evaluateInst(ev.inst, churnOps, r, out)
}

// EvaluateCertificateInto runs inject → discard repair → majority-access
// certificate only, skipping the Lemma-7 shorting witness and churn — the
// fast path for experiments that read just the certificate fields (E5, the
// E10 ablations). Shorted is reported false and Success reflects only the
// certificate.
func (ev *Evaluator) EvaluateCertificateInto(out *TrialOutcome, m fault.Model, r *rng.RNG) {
	ev.synced = false
	fault.InjectInto(ev.inst, m, r)
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	RepairMasksInto(ev.inst, &ev.masks)
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)
	out.Success = out.MajorityAccess
}

// StartBlock readies the evaluator for a block of batched trials under
// model m: trial first+j draws its faults from rng.Stream(seed, first+j),
// exactly as EvaluateInto does under the montecarlo harness. Consume the
// block with EvaluateNextInto / EvaluateNextCertInto — each call advances
// the fault instance by a diff and repairs only the changed
// stage-neighborhoods, so per-trial overhead is O(#failure changes), not
// O(E). Outcomes are bit-identical to the per-trial engine at any block
// size (see the differential harness).
func (ev *Evaluator) StartBlock(m fault.Model, seed, first uint64, n int) {
	ev.resync()
	ev.batch.FillStream(m, seed, first, n)
}

// StartBlockSeq is StartBlock for the sequential seeding convention of
// Evaluate: trial first+j draws its faults from rng.New(seedBase+first+j),
// with churn continuing on the same generator.
func (ev *Evaluator) StartBlockSeq(m fault.Model, seedBase, first uint64, n int) {
	ev.resync()
	ev.batch.FillSeq(m, seedBase, first, n)
}

// requireSynced guards the batched entry points: a legacy Evaluate* call
// between StartBlock and block consumption would leave the injector's
// applied list out of step with the instance, so diffs would be computed
// against a wrong baseline — fail loudly instead of corrupting outcomes.
func (ev *Evaluator) requireSynced() {
	if !ev.synced {
		panic("core: EvaluateNext* after a per-trial Evaluate* call; call StartBlock to resynchronize")
	}
}

// resync puts the inst/masks/router triple into the incrementally
// maintained state, from scratch if a per-trial Evaluate* call mutated the
// instance behind the injector's back.
func (ev *Evaluator) resync() {
	if ev.synced {
		return
	}
	ev.batch.Rebase(ev.inst)
	ev.mu.Init(ev.inst, &ev.masks)
	ev.eng.SetMasksShared(ev.masks.VertexOK, ev.masks.EdgeOK, ev.masks.OutAllowed)
	ev.engDirty = false
	ev.clearPending()
	ev.synced = true
}

// noteMaskEdits merges the latest mu.Apply's change lists (edges: its
// return value; vertices: ChangedVertices) into the pending diff the
// engine receives at the next churn phase. Dedup is epoch-stamped, so the
// arena-backed lists never outgrow their nV/nE capacity.
//
//ftcsn:hotpath per-trial diff bookkeeping on the batched pipeline
func (ev *Evaluator) noteMaskEdits(edges []int32) {
	if len(edges) == 0 {
		return
	}
	ev.engDirty = true
	for _, v := range ev.mu.ChangedVertices() {
		if ev.pendVEp[v] != ev.pendEpoch {
			ev.pendVEp[v] = ev.pendEpoch
			ev.pendV = append(ev.pendV, v)
		}
	}
	for _, e := range edges {
		if ev.pendEEp[e] != ev.pendEpoch {
			ev.pendEEp[e] = ev.pendEpoch
			ev.pendE = append(ev.pendE, e)
		}
	}
}

// clearPending forgets the accumulated diff after the engine consumed it
// (or resync handed the engine a fresh full view). O(1): epoch bump; the
// stamp arrays are cleared only on the ~4-billion-epoch wraparound.
func (ev *Evaluator) clearPending() {
	ev.pendV = ev.pendV[:0]
	ev.pendE = ev.pendE[:0]
	ev.pendFull = false
	ev.pendEpoch++
	if ev.pendEpoch == 0 {
		clear(ev.pendVEp)
		clear(ev.pendEEp)
		ev.pendEpoch = 1
	}
}

// EvaluateNextInto runs the next trial of the current block — the batched
// counterpart of EvaluateInto, bit-identical to it for the same trial
// stream. Churn randomness resumes the trial's own stream from its
// post-injection state.
//
//ftcsn:hotpath per-trial pipeline core; 0 allocs/trial pinned by BenchmarkEvaluatorBatchTrial
func (ev *Evaluator) EvaluateNextInto(out *TrialOutcome, churnOps int) {
	ev.requireSynced()
	diff := ev.batch.ApplyNext(ev.inst)
	ev.noteMaskEdits(ev.mu.Apply(ev.inst, &ev.masks, diff))
	ev.r.SetState(ev.batch.RNGState(ev.batch.Applied()))
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	list, sts := ev.batch.AppliedFailures()
	if a, _ := ev.inst.ShortedTerminalsFromList(list, sts, ev.fsc); a >= 0 {
		out.Shorted = true
	}
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)

	if churnOps > 0 {
		// Masks are shared and already current: drop circuits, let the
		// engine refresh anything it derives from the edited bytes (the
		// sharded engine's routing guide), and drive the churn protocol —
		// bit-identical to churn on the evaluator's own router (see
		// netsim.ChurnDriver and the differential harness). The refresh is
		// incremental — the accumulated change lists bound the engine's
		// work to the diff's reverse cone — unless an untracked edit (a
		// certificate-only trial in between) forces the full rebuild; the
		// two are bit-identical either way.
		ev.eng.Reset()
		if ev.engDirty {
			if ev.pendFull {
				ev.eng.MasksChanged()
			} else {
				ev.eng.MasksChangedDiff(ev.pendV, ev.pendE)
			}
			ev.clearPending()
			ev.engDirty = false
		}
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			ev.cd.Run(ev.eng, ev.nw.Inputs(), ev.nw.Outputs(), churnOps, &ev.r)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// EvaluateNextCertInto is EvaluateNextInto restricted to the
// majority-access certificate — the batched counterpart of
// EvaluateCertificateInto, bit-identical to it for the same trial stream.
//
//ftcsn:hotpath per-trial certificate pipeline; 0 allocs/trial pinned by BenchmarkEvaluatorBatchCertTrial
func (ev *Evaluator) EvaluateNextCertInto(out *TrialOutcome) {
	ev.requireSynced()
	diff := ev.batch.ApplyNext(ev.inst)
	// Record the edit without its lists: the certificate path never pays
	// a churn phase itself, so it skips per-trial diff bookkeeping; a
	// later churn trial falls back to the full refresh.
	if len(ev.mu.Apply(ev.inst, &ev.masks, diff)) > 0 {
		ev.engDirty = true
		ev.pendFull = true
	}
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)
	out.Success = out.MajorityAccess
}

// evaluateInst is the shared post-injection pipeline; inst must be over the
// evaluator's own graph (its buffers are sized for it).
func (ev *Evaluator) evaluateInst(inst *fault.Instance, churnOps int, r *rng.RNG, out *TrialOutcome) {
	*out = TrialOutcome{
		FailedSwitches: inst.NumFailed(),
		OpenSwitches:   inst.NumOpen(),
		ClosedSwitches: inst.NumClosed(),
	}
	if a, _ := inst.ShortedTerminalsWith(ev.fsc); a >= 0 {
		out.Shorted = true
	}
	RepairMasksInto(inst, &ev.masks)
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)

	if churnOps > 0 {
		// SetMasks resets the router (no live circuits), the precondition
		// of the churn driver; this legacy path and the batched
		// EvaluateNextInto pipeline share the one churn entry.
		ev.rt.SetMasks(ev.masks.VertexOK, ev.masks.EdgeOK)
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			ev.cd.Run(ev.rt, ev.nw.Inputs(), ev.nw.Outputs(), churnOps, r)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// Evaluate runs one trial: draw switch states from model m with the given
// seed, repair, verify, and run churnOps random connect/disconnect
// operations. churnOps = 0 skips the routing phase. It is a convenience
// wrapper that builds a one-shot Evaluator; Monte-Carlo loops should hold
// an Evaluator per worker and call EvaluateInto instead.
func (nw *Network) Evaluate(m fault.Model, seed uint64, churnOps int) TrialOutcome {
	return NewEvaluator(nw).Evaluate(m, seed, churnOps)
}

// EvaluateInstance is Evaluate for a pre-drawn fault instance; churn
// randomness comes from r.
func (nw *Network) EvaluateInstance(inst *fault.Instance, churnOps int, r *rng.RNG) TrialOutcome {
	var out TrialOutcome
	NewEvaluator(nw).evaluateInst(inst, churnOps, r, &out)
	return out
}

func minOf(xs []int) int {
	m := -1
	for _, x := range xs {
		if x < 0 {
			continue // busy terminal, exempt
		}
		if m < 0 || x < m {
			m = x
		}
	}
	return m
}
