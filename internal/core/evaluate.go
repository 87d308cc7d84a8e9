package core

import (
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
//
// The batched form (StartBlock + EvaluateNextInto / EvaluateNextCertInto)
// is bit-identical and cheaper: it holds every trial as the fault-free
// network plus that trial's damage, so the mask update and the guide
// refresh cost O(damage), and the certificate's output half is read off
// the churn engine's guide when it keeps one (see EvaluateNextInto).
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
	// are bit-identical either way). cd runs the per-op churn protocol.
	eng route.Engine
	cd  netsim.ChurnDriver

	// Batched-block engine: every trial is the fault-free network plus
	// that trial's damage. The injector advances inst to the trial's
	// failures, the mask updater stamps the trial's discard repair onto
	// the shared masks (undoing the previous trial's), and the engine
	// refreshes its guide from its fault-free copy plus the same damage —
	// so no state carries over from one trial to the next. synced tracks
	// whether the inst/masks/engine triple is in that maintained state.
	batch  *fault.BatchInjector
	mu     *MaskUpdater
	synced bool
}

// NewEvaluator returns a reusable trial evaluator for nw. The repair masks
// and traversal bytes are pre-sized here, so the first trial does not grow
// them.
func NewEvaluator(nw *Network) *Evaluator {
	rt := route.NewRouter(nw.G)
	rt.EnablePathReuse()
	ev := &Evaluator{
		nw:    nw,
		inst:  fault.NewInstance(nw.G),
		fsc:   fault.NewScratch(nw.G),
		ac:    NewAccessChecker(nw),
		rt:    rt,
		batch: fault.NewBatchInjector(nw.G),
		mu:    NewMaskUpdater(nw.G),
	}
	ev.eng = rt
	nV, nE := nw.G.NumVertices(), nw.G.NumEdges()
	ev.masks.VertexOK = make([]bool, nV)
	ev.masks.EdgeOK = make([]bool, nE)
	ev.masks.OutAllowed = make([]uint8, nE)
	ev.masks.InAllowed = make([]uint8, nE)
	return ev
}

// SetChurnEngine replaces the engine the batched pipeline's churn phase
// runs on (default: the evaluator's sequential router). The engine must
// be over the evaluator's graph and have sequential-batch semantics
// (route.Router, route.ShardedEngine) for outcomes to stay bit-identical;
// it is adopted lazily — the next StartBlock hands it the shared masks.
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
// the fault instance by a diff and stamps the trial's damage onto the
// fault-free masks, so mask upkeep is O(damage), not O(E). Outcomes are
// bit-identical to the per-trial engine at any block size (see the
// differential harness).
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
	ev.synced = true
}

// EvaluateNextInto runs the next trial of the current block — the batched
// counterpart of EvaluateInto, bit-identical to it for the same trial
// stream. Churn randomness resumes the trial's own stream from its
// post-injection state.
//
// With churn, the engine refreshes its routing guide before the
// certificate: the guide's middle-stage rows then supply the
// certificate's output half (Corollary 2's access counts), and the
// forward sweep supplies the input half (Lemma 6's). Without a guide — the
// default Router engine — both halves come from the word-parallel sweeps.
//
//ftcsn:hotpath per-trial pipeline core; 0 allocs/trial pinned by BenchmarkEvaluatorBatchTrial
func (ev *Evaluator) EvaluateNextInto(out *TrialOutcome, churnOps int) {
	vertices, edges := ev.stampNext(out)
	ev.r.SetState(ev.batch.RNGState(ev.batch.Applied()))
	list, sts := ev.batch.AppliedFailures()
	if a, _ := ev.inst.ShortedTerminalsFromList(list, sts, ev.fsc); a >= 0 {
		out.Shorted = true
	}
	var guide []uint64
	var groups int
	if churnOps > 0 {
		// Masks are shared and already current: drop circuits and let the
		// engine refresh what it derives from the bytes (the sharded
		// engine's routing guide) from its fault-free copy plus this
		// trial's damage — bit-identical to a full rebuild.
		ev.eng.Reset()
		ev.eng.MasksDamaged(vertices, edges)
		guide, groups = ev.eng.GuideWords()
	}
	ev.certify(out, guide, groups)
	if churnOps > 0 {
		// Churn on the engine is bit-identical to churn on the
		// evaluator's own router (see netsim.ChurnDriver and the
		// differential harness).
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			ev.cd.Run(ev.eng, ev.nw.Inputs(), ev.nw.Outputs(), churnOps, &ev.r)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// EvaluateNextCertInto is EvaluateNextInto restricted to the
// majority-access certificate — the batched counterpart of
// EvaluateCertificateInto, bit-identical to it for the same trial stream.
// It leaves the engine's guide stale; the next churn trial's MasksDamaged
// rebuilds it from the fault-free copy, so nothing needs tracking.
//
//ftcsn:hotpath per-trial certificate pipeline; 0 allocs/trial pinned by BenchmarkEvaluatorBatchCertTrial
func (ev *Evaluator) EvaluateNextCertInto(out *TrialOutcome) {
	ev.stampNext(out)
	ev.certify(out, nil, 0)
	out.Success = out.MajorityAccess
}

// stampNext applies the block's next trial to the instance and stamps its
// discard repair onto the masks, starting out with the failure counts. It
// returns the trial's damage (MaskUpdater.Stamp).
func (ev *Evaluator) stampNext(out *TrialOutcome) (vertices, edges []int32) {
	ev.requireSynced()
	ev.batch.ApplyNext(ev.inst)
	list, _ := ev.batch.AppliedFailures()
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	return ev.mu.Stamp(&ev.masks, list)
}

// certify runs the majority-access certificate on the current masks,
// reading the output half off guide when one is given (see
// majorityAccessGuidedInto), and records it in out.
func (ev *Evaluator) certify(out *TrialOutcome, guide []uint64, groups int) {
	ev.nw.majorityAccessGuidedInto(ev.ac, ev.masks, guide, groups, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)
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
