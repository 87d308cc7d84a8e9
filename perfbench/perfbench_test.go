package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftcsn/internal/core"
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMetricTablesMatchBenchmarkJSON pins the program's metric tables to
// the declaration: same names, same units, same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// TestShortRunsPassChecks runs every workload briefly in both modes: each
// must pass its output checks and print exactly the declared metrics.
func TestShortRunsPassChecks(t *testing.T) {
	d := readDeclared(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				seed:    7,
				measure: 200 * time.Millisecond,
				trace:   trace,
				setups:  1,
				spans:   filepath.Join(t.TempDir(), "spans.tsv"),
				log:     io.Discard,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) printed as %+v", name, trace, m.Name, m.Unit, got)
				}
			}
			if !trace {
				for _, m := range d.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestReplicaMatchesEvaluator checks that the traced replica reproduces
// EvaluateNextInto / EvaluateNextCertInto on every trial, on several
// seeds, and that the recorded spans account for all traced time.
func TestReplicaMatchesEvaluator(t *testing.T) {
	for _, spec := range []trialSpec{{eps: 1e-3, churn: true}, {eps: 5e-3, churn: false}, {eps: 0.02, churn: true}} {
		for _, seed := range []uint64{1, 2, 3} {
			rig, err := newTrialRig(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			rp := newReplica(rig, tr)
			var want, got [blockSize]core.TrialOutcome
			var lat [blockSize]int64
			for _, b := range []int{0, 1, 2, 1, 5} {
				rig.block(b, want[:], lat[:])
				rp.block(b, got[:])
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("spec %+v seed %d trial %d: replica %+v, evaluator %+v", spec, seed, b*blockSize+j, got[j], want[j])
					}
				}
			}
			var self int64
			for _, s := range tr.self {
				self += s
			}
			if self != tr.roots {
				t.Errorf("spec %+v seed %d: self times sum to %d ns, root spans to %d ns", spec, seed, self, tr.roots)
			}
			if tr.dropped == 0 && selfFromSpans(tr.spans) != tr.self {
				t.Errorf("spec %+v seed %d: self times derived from the kept spans differ from the accumulated ones", spec, seed)
			}
			rp.close()
			rig.close()
		}
	}
}
