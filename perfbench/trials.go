package main

import (
	"fmt"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

const (
	benchNu     = 3   // core.DefaultParams(3): Network 𝒩 with n = 64
	blockSize   = 32  // trials per StartBlock, montecarlo.DefaultBlock
	trialBlocks = 32  // blocks replayed per cycle: 1,024 distinct trials
	churnOps    = 120 // churn operations per Theorem-2 trial, as in E7
	churnShards = 4   // the experiments' churn engine shard count
	allocBlocks = 4   // traced run: blocks that allocs_per_op counts over
	checkStride = 4   // every 4th reference trial is re-run on the oracle

	// guideRebuildDivisor mirrors route's cutover: a MasksChangedDiff whose
	// lists hold at least NumEdges/8 entries rebuilds the whole guide.
	guideRebuildDivisor = 8
)

// trialSpec is one Monte-Carlo trial workload: a closed loop of batched
// trials under the symmetric fault model, each trial starting when the
// previous one ends. The run replays the same trialBlocks blocks, trials
// 0..1023 of the seed's stream, cycle after cycle.
type trialSpec struct {
	eps   float64
	churn bool // EvaluateNextInto with churn; false: EvaluateNextCertInto
}

func runTheorem2(cfg config) (result, error) {
	return runTrials(cfg, trialSpec{eps: 1e-3, churn: true})
}

func runCertificate(cfg config) (result, error) {
	return runTrials(cfg, trialSpec{eps: 5e-3, churn: false})
}

// trialRig is the production pipeline under measurement: a batched
// core.Evaluator, with a sharded churn engine for the Theorem-2 workload.
type trialRig struct {
	spec trialSpec
	m    fault.Model
	seed uint64
	nw   *core.Network
	ev   *core.Evaluator
	se   *route.ShardedEngine // nil for the certificate-only workload
}

// newTrialRig is the timed set-up: build the network, the evaluator and
// its engine, and start an empty block, which derives the initial masks
// and the engine's routing guide without drawing a trial.
func newTrialRig(spec trialSpec, seed uint64) (*trialRig, error) {
	nw, err := core.Build(core.DefaultParams(benchNu))
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	rig := &trialRig{spec: spec, m: fault.Symmetric(spec.eps), seed: seed, nw: nw, ev: core.NewEvaluator(nw)}
	if spec.churn {
		rig.se = route.NewShardedEngine(nw.G, churnShards)
		rig.ev.SetChurnEngine(rig.se)
	}
	rig.ev.StartBlock(rig.m, seed, 0, 0)
	return rig, nil
}

func (rig *trialRig) close() {
	if rig.se != nil {
		rig.se.Close()
	}
}

// block runs the trials of block b, writing their outcomes and the wall
// time of each EvaluateNext* call, and returns the block's wall time.
func (rig *trialRig) block(b int, outs []core.TrialOutcome, lat []int64) time.Duration {
	t0 := time.Now()
	rig.ev.StartBlock(rig.m, rig.seed, uint64(b*blockSize), blockSize)
	for j := range outs[:blockSize] {
		s := time.Now()
		if rig.spec.churn {
			rig.ev.EvaluateNextInto(&outs[j], churnOps)
		} else {
			rig.ev.EvaluateNextCertInto(&outs[j])
		}
		lat[j] = int64(time.Since(s))
	}
	return time.Since(t0)
}

func runTrials(cfg config, spec trialSpec) (result, error) {
	hc := newHostClock(cfg.log)
	base := liveHeap()
	setup, rig, err := measureSetup(cfg.setups, hc,
		func() (*trialRig, error) { return newTrialRig(spec, cfg.seed) },
		(*trialRig).close)
	if err != nil {
		return result{}, err
	}
	defer rig.close()
	// Cycle 0 warms up and records the reference outcomes every later
	// replay must reproduce.
	ref := make([]core.TrialOutcome, trialBlocks*blockSize)
	var lat [blockSize]int64
	var d time.Duration
	for b := 0; b < trialBlocks; b++ {
		d += rig.block(b, ref[b*blockSize:], lat[:])
	}
	heap := float64(liveHeap()-base) / (1 << 20)
	if cfg.trace {
		return traceTrials(cfg, rig, ref)
	}

	cycles := int(cfg.measure.Seconds()/d.Seconds()) + 1
	hc.lat = make([]float64, 0, 2*cycles*len(ref))
	var outs [blockSize]core.TrialOutcome
	var failed int64
	deadline := time.Now().Add(cfg.measure)
	for c := 0; c == 0 || time.Now().Before(deadline); c++ {
		for b := 0; b < trialBlocks; b++ {
			hc.unit(rig.block(b, outs[:], lat[:]), blockSize, lat[:])
			failed += countMismatches(cfg, b, outs[:], ref[b*blockSize:], "replay")
		}
	}
	failed += checkTrials(cfg, rig, ref)
	v := map[string]float64{"setup_s": setup, "heap_mb": heap}
	hc.metrics(trialBlocks, v)
	return newResult(cfg, hc.total(), failed, v), nil
}

// countMismatches compares a block's outcomes with the reference and logs
// each difference.
func countMismatches(cfg config, b int, got, want []core.TrialOutcome, what string) int64 {
	var n int64
	for j := range got {
		if got[j] != want[j] {
			n++
			fmt.Fprintf(cfg.log, "perfbench: trial %d: %s %+v, reference %+v\n", b*blockSize+j, what, got[j], want[j])
		}
	}
	return n
}

// checkTrials re-runs every checkStride-th reference trial on the
// per-trial oracle path — fresh injection from rng.Stream(seed, index),
// full repair, per-terminal BFS certificate, churn on the sequential
// Router — and returns how many outcomes differ in any field.
func checkTrials(cfg config, rig *trialRig, ref []core.TrialOutcome) int64 {
	oracle := core.NewEvaluator(rig.nw)
	var r rng.RNG
	var o core.TrialOutcome
	var failed int64
	for i := 0; i < len(ref); i += checkStride {
		r.ReseedStream(rig.seed, uint64(i))
		if rig.spec.churn {
			oracle.EvaluateInto(&o, rig.m, &r, churnOps)
		} else {
			oracle.EvaluateCertificateInto(&o, rig.m, &r)
		}
		if o != ref[i] {
			failed++
			fmt.Fprintf(cfg.log, "perfbench: trial %d: batched %+v, per-trial oracle %+v\n", i, ref[i], o)
		}
	}
	return failed
}

// traceTrials measures the per-layer breakdown. Block by block, the
// production pipeline runs untraced and the traced replica replays the
// same trials; both must reproduce the reference outcomes field by field.
// The two alternate which goes first, so drift in the host's speed falls
// on both sides of trace.overhead alike.
func traceTrials(cfg config, rig *trialRig, ref []core.TrialOutcome) (result, error) {
	var outs [blockSize]core.TrialOutcome
	var lat [blockSize]int64
	m0 := mallocs()
	for b := 0; b < allocBlocks; b++ {
		rig.block(b, outs[:], lat[:])
	}
	allocs := float64(mallocs()-m0) / (allocBlocks * blockSize)

	tr := newTracer()
	rp := newReplica(rig, tr)
	defer rp.close()
	var failed, n int64
	for b := 0; b < trialBlocks; b++ {
		rp.block(b, outs[:])
		failed += countMismatches(cfg, b, outs[:], ref[b*blockSize:], "replica")
	}
	tr.reset()
	rp.n = replicaCounts{}
	var st0 route.ShardedStats
	if rp.se != nil {
		st0 = rp.se.ShardedStats()
	}
	var wallA, wallB time.Duration
	deadline := time.Now().Add(cfg.measure)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		b := i % trialBlocks
		untraced := func() {
			wallA += rig.block(b, outs[:], lat[:])
			failed += countMismatches(cfg, b, outs[:], ref[b*blockSize:], "EvaluateNext*")
		}
		if i%2 == 0 {
			untraced()
		}
		t0 := time.Now()
		rp.block(b, outs[:])
		wallB += time.Since(t0)
		failed += countMismatches(cfg, b, outs[:], ref[b*blockSize:], "replica")
		if i%2 == 1 {
			untraced()
		}
		n += blockSize
	}
	var st route.ShardedStats
	if rp.se != nil {
		addStatsDelta(&st, rp.se.ShardedStats(), st0)
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Fprintf(cfg.log, "perfbench: %d trials traced in %v (untraced %v), %d failed checks, spans kept %d dropped %d\n",
		n, wallB, wallA, failed, len(tr.spans), tr.dropped)

	ops := float64(n)
	v := layerValues(tr, st, ops)
	v["trace.overhead"] = float64(wallB) / float64(wallA)
	v["trace.op_us"] = float64(wallB) / 1e3 / ops
	v["allocs_per_op"] = allocs
	v["fault.inject.failures"] = float64(rp.n.failures) / ops
	v["core.maskupdate.vertex_flips"] = float64(rp.n.flips) / ops
	v["core.maskupdate.edge_entries"] = float64(rp.n.edgeEntries) / ops
	v["core.certificate.pass_share"] = float64(rp.n.certPass) / ops
	v["route.guide.full_rebuild_share"] = ratio(float64(rp.n.fullRebuilds), float64(rp.n.refreshes))
	v["netsim.serve.behind_p99"] = 0
	v["netsim.serve.reject_share"] = 0
	return newResult(cfg, 2*n, failed, v), nil
}

// layerValues derives the metrics every traced workload reports the same
// way: self-time shares of each layer, and the engine counters per
// operation.
func layerValues(tr *tracer, st route.ShardedStats, ops float64) map[string]float64 {
	rejects := float64(st.EndpointRejects + st.PrefilterRejects + st.ProbeRejects + st.CommitRejects)
	return map[string]float64{
		"trace.root.self_share":             tr.share(spanTrial),
		"fault.inject.share":                tr.share(spanFill, spanInject),
		"fault.witness.share":               tr.share(spanWitness),
		"core.maskupdate.share":             tr.share(spanMaskUpdate),
		"core.certificate.share":            tr.share(spanCertificate),
		"route.guide.share":                 tr.share(spanGuide),
		"route.connect.share":               tr.share(spanConnect),
		"route.disconnect.share":            tr.share(spanDisconnect),
		"route.reset.share":                 tr.share(spanReset),
		"netsim.churn.self_share":           tr.share(spanChurn),
		"netsim.source.share":               tr.share(spanSource),
		"netsim.serve.self_share":           tr.share(spanServe),
		"route.connect.batches":             float64(tr.calls[spanConnect]) / ops,
		"route.fastpath_share":              ratio(float64(st.FastPath), float64(st.Accepted)),
		"route.fallbacks":                   float64(st.Fallbacks) / ops,
		"route.prefilter.sweeps":            float64(st.PrefilterSweeps) / ops,
		"route.prefilter.rejects_per_sweep": ratio(float64(st.PrefilterRejects), float64(st.PrefilterSweeps)),
		"route.rejects.endpoint_share":      ratio(float64(st.EndpointRejects), rejects),
		"route.rejects.probe_share":         ratio(float64(st.ProbeRejects), rejects),
		"route.rejects.prefilter_share":     ratio(float64(st.PrefilterRejects), rejects),
		"route.rejects.commit_share":        ratio(float64(st.CommitRejects), rejects),
	}
}

// addStatsDelta adds the counters of a minus those of b to acc.
func addStatsDelta(acc *route.ShardedStats, a, b route.ShardedStats) {
	acc.Accepted += a.Accepted - b.Accepted
	acc.FastPath += a.FastPath - b.FastPath
	acc.Fallbacks += a.Fallbacks - b.Fallbacks
	acc.EndpointRejects += a.EndpointRejects - b.EndpointRejects
	acc.PrefilterRejects += a.PrefilterRejects - b.PrefilterRejects
	acc.ProbeRejects += a.ProbeRejects - b.ProbeRejects
	acc.CommitRejects += a.CommitRejects - b.CommitRejects
	acc.PrefilterSweeps += a.PrefilterSweeps - b.PrefilterSweeps
}

// replica composes the public layer calls of one batched trial exactly as
// core.Evaluator.EvaluateNextInto / EvaluateNextCertInto do, with a span
// around each call, so the traced run can attribute a trial's time to the
// layers without instrumenting the program.
type replica struct {
	spec  trialSpec
	m     fault.Model
	seed  uint64
	nw    *core.Network
	inst  *fault.Instance
	bi    *fault.BatchInjector
	mu    *core.MaskUpdater
	masks core.Masks
	fsc   *fault.Scratch
	ac    *core.AccessChecker
	rep   core.MajorityReport
	se    *route.ShardedEngine // nil for the certificate-only workload
	eng   route.Engine         // se behind the span-recording decorator
	cd    netsim.ChurnDriver
	r     rng.RNG
	tr    *tracer
	n     replicaCounts
}

// replicaCounts are work counts read from public observers: the fault
// instance, the mask updater's change lists, the certificate report.
type replicaCounts struct {
	failures, flips, edgeEntries, certPass, refreshes, fullRebuilds int64
}

func newReplica(rig *trialRig, tr *tracer) *replica {
	g := rig.nw.G
	rp := &replica{
		spec: rig.spec,
		m:    rig.m,
		seed: rig.seed,
		nw:   rig.nw,
		inst: fault.NewInstance(g),
		bi:   fault.NewBatchInjector(g),
		mu:   core.NewMaskUpdater(g),
		fsc:  fault.NewScratch(g),
		ac:   core.NewAccessChecker(rig.nw),
		tr:   tr,
	}
	rp.bi.Rebase(rp.inst)
	rp.mu.Init(rp.inst, &rp.masks)
	if rp.spec.churn {
		rp.se = route.NewShardedEngine(g, churnShards)
		rp.se.SetMasksShared(rp.masks.VertexOK, rp.masks.EdgeOK, rp.masks.OutAllowed)
		rp.eng = &tracedEngine{Engine: rp.se, tr: tr}
	}
	return rp
}

func (rp *replica) close() {
	if rp.se != nil {
		rp.se.Close()
	}
}

// block runs the trials of block b, writing their outcomes.
func (rp *replica) block(b int, outs []core.TrialOutcome) {
	rp.tr.begin(spanFill)
	rp.bi.FillStream(rp.m, rp.seed, uint64(b*blockSize), blockSize)
	rp.tr.end()
	for j := range outs[:blockSize] {
		rp.trial(&outs[j])
	}
}

// trial runs the next trial of the current block.
func (rp *replica) trial(out *core.TrialOutcome) {
	tr := rp.tr
	tr.begin(spanTrial)
	tr.begin(spanInject)
	diff := rp.bi.ApplyNext(rp.inst)
	tr.end()
	tr.begin(spanMaskUpdate)
	edges := rp.mu.Apply(rp.inst, &rp.masks, diff)
	tr.end()
	flips := rp.mu.ChangedVertices()
	*out = core.TrialOutcome{
		FailedSwitches: rp.inst.NumFailed(),
		OpenSwitches:   rp.inst.NumOpen(),
		ClosedSwitches: rp.inst.NumClosed(),
	}
	if rp.spec.churn {
		list, sts := rp.bi.AppliedFailures()
		tr.begin(spanWitness)
		a, _ := rp.inst.ShortedTerminalsFromList(list, sts, rp.fsc)
		tr.end()
		out.Shorted = a >= 0
	}
	tr.begin(spanCertificate)
	rp.nw.MajorityAccessInto(rp.ac, rp.masks, &rp.rep)
	tr.end()
	out.MajorityAccess = rp.rep.OK
	out.MinInputAccess = minAccess(rp.rep.InputAccess)
	out.MinOutputAccess = minAccess(rp.rep.OutputAccess)
	out.Success = out.MajorityAccess
	if rp.spec.churn {
		tr.begin(spanReset)
		rp.se.Reset()
		tr.end()
		if len(edges) > 0 {
			tr.begin(spanGuide)
			rp.se.MasksChangedDiff(flips, edges)
			tr.end()
			rp.n.refreshes++
			if (len(flips)+len(edges))*guideRebuildDivisor >= rp.nw.G.NumEdges() {
				rp.n.fullRebuilds++
			}
		}
		rp.r.SetState(rp.bi.RNGState(rp.bi.Applied()))
		tr.begin(spanChurn)
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			rp.cd.Run(rp.eng, rp.nw.Inputs(), rp.nw.Outputs(), churnOps, &rp.r)
		tr.end()
		out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
	}
	tr.end()
	rp.n.failures += int64(out.FailedSwitches)
	rp.n.flips += int64(len(flips))
	rp.n.edgeEntries += int64(len(edges))
	if rp.rep.OK {
		rp.n.certPass++
	}
}

// minAccess is the worst idle-terminal access count (busy terminals, -1,
// are exempt), as TrialOutcome reports it.
func minAccess(xs []int) int {
	m := -1
	for _, x := range xs {
		if x >= 0 && (m < 0 || x < m) {
			m = x
		}
	}
	return m
}
