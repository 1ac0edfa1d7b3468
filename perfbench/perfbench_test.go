package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/prof"
)

// The traced run must simulate the same program as the untraced one:
// the decorators may add time, never change a result or the code path.

func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	var acc layerTimes
	cases := []struct {
		name              string
		est               confidence.Estimator
		batchEst, batchTr bool
		oracle            bool
	}{
		{"cic", confidence.NewCIC(0), true, true, false},
		{"jrs", confidence.NewEnhancedJRS(15), false, false, false},
		{"oracle", confidence.NewOracle(), false, false, true},
	}
	for _, c := range cases {
		_, be := c.est.(confidence.BatchEstimator)
		_, bt := c.est.(confidence.BatchTrainer)
		_, or := c.est.(confidence.TraceOracle)
		if be != c.batchEst || bt != c.batchTr || or != c.oracle {
			t.Fatalf("%s: the program's estimator no longer has the interfaces this test expects", c.name)
		}
		w := wrapEstimator(c.est, &acc)
		_, wbe := w.(confidence.BatchEstimator)
		_, wbt := w.(confidence.BatchTrainer)
		_, wor := w.(confidence.TraceOracle)
		if wbe != be || wbt != bt || wor != or {
			t.Errorf("%s: decorated interfaces (batch estimate %v, batch train %v, oracle %v), want (%v, %v, %v)",
				c.name, wbe, wbt, wor, be, bt, or)
		}
	}
}

func TestTracedSimulationMatchesUntraced(t *testing.T) {
	for _, seg := range []int{0, 1} {
		for _, bench := range []string{"gzip", "mcf"} {
			plain, err := simulate(newRecorder(false), bench, seg, false)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(true)
			traced, err := simulate(rec, bench, seg, true)
			if err != nil {
				t.Fatal(err)
			}
			if digest(plain) != digest(traced) {
				t.Errorf("%s segment %d: traced result %+v, untraced %+v", bench, seg, traced, plain)
			}
			if rec.layers.confCalls == 0 || rec.layers.predCalls == 0 || rec.layers.nextUops == 0 || rec.layers.wrongUops == 0 {
				t.Errorf("%s: a decorator saw no calls: %+v", bench, rec.layers)
			}
		}
	}
}

// The benchmark builds its timing simulations itself (to decorate
// them); they must equal core's own timing job for the same spec.
func TestSimulationMatchesCoreTimingJob(t *testing.T) {
	core.ResetResultCache()
	got, err := simulate(newRecorder(false), "vpr", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ExecJob(context.Background(), core.JobSpec{
		Bench:         "vpr",
		Machine:       config.Baseline40x4(),
		Predictor:     core.BimodalGshare.String(),
		Estimator:     confidence.SpecCIC(0),
		GateThreshold: 1,
		Sizes:         core.JobSizes{Warmup: simWarmup, Measure: simMeasure, Segments: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if digest(got) != digest(want) {
		t.Errorf("benchmark simulation %+v, core timing job %+v", got, want)
	}
}

func TestTracedFunctionalMatchesUntraced(t *testing.T) {
	for _, fe := range functionalEstimators {
		plain, err := functional(newRecorder(false), "gcc", fe.name, false)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(true)
		traced, err := functional(rec, "gcc", fe.name, true)
		if err != nil {
			t.Fatal(err)
		}
		if digest(plain) != digest(traced) {
			t.Errorf("%s: traced functional result differs from untraced", fe.name)
		}
		if rec.layers.confCalls == 0 || rec.layers.predCalls == 0 {
			t.Errorf("%s: a decorator saw no calls: %+v", fe.name, rec.layers)
		}
	}
}

func TestClassify(t *testing.T) {
	stack := func(fns ...string) []prof.Frame {
		out := make([]prof.Frame, len(fns))
		for i, f := range fns {
			out[i] = prof.Frame{Function: f}
		}
		return out
	}
	cases := []struct {
		stack []prof.Frame
		want  string
	}{
		{stack("bce/internal/pipeline.(*Sim).issue", "bce/internal/pipeline.(*Sim).step"), "pipeline_sched"},
		{stack("bce/internal/pipeline.(*Sim).fetchBranch", "bce/internal/pipeline.(*Sim).fetch"), "pipeline_fetch"},
		{stack("bce/internal/pipeline.(*Sim).retire"), "pipeline_other"},
		{stack("runtime.duffcopy", "bce/internal/pipeline.(*Sim).dispatch"), "copy"},
		{stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "gc"},
		{stack("runtime.mallocgc", "bce/internal/cache.New"), "cache"},
		{stack("bce/internal/perceptron.dot", "bce/internal/predictor.(*Hybrid).Predict"), "predictor"},
		{stack("bce/internal/perceptron.dot", "bce/internal/confidence.(*PerceptronCIC).Estimate"), "confidence"},
		{stack("bce/internal/workload.(*Generator).Next", "bce/internal/workload.probeHotness", "bce/internal/workload.New"), "workload_setup"},
		{stack("bce/internal/workload.(*Generator).Next", "bce/internal/core.runFunctionalSegment"), "workload_gen"},
		{stack("bce/internal/dist.(*Worker).handleExec"), "dist"},
		{stack("syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"), "dist"},
		{stack("bce/internal/core.runTimingSpecTrain"), "runner"},
		{stack("runtime.futex", "runtime.findRunnable"), "other"},
		{stack("time.now", "main.(*timedPredictor).Predict", "bce/internal/core.runFunctionalSegment"), "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestLedgerSharesSumToOne(t *testing.T) {
	l := newLedger()
	p := &prof.Profile{
		SampleTypes: []prof.ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples: []prof.Sample{
			{Stack: []prof.Frame{{Function: "bce/internal/pipeline.(*Sim).issue"}}, Values: []int64{3, 30}},
			{Stack: []prof.Frame{{Function: "runtime.futex"}}, Values: []int64{1, 10}},
		},
	}
	if err := l.addProfile(p); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range l.shares() {
		sum += s
	}
	if sum != 1 || l.shares()["pipeline_sched"] != 0.75 {
		t.Errorf("shares %v sum to %v", l.shares(), sum)
	}
	if got := l.topOther(3); got != " runtime.futex=25.0%" {
		t.Errorf("topOther = %q", got)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 40}}
	if got := covered(iv, 0, 35); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
}

// The metrics the benchmark prints are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s #%d: declared %s [%s], printed %s [%s]", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
