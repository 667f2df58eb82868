package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// small shrinks a workload to test size: 256 nodes, at most two
// retrievals per round, one trial per set.
func small(w workload) workload {
	w.cfg.N = 256
	w.trials = 1
	w.phases = slices.Clone(w.phases)
	for i := range w.phases {
		w.phases[i].retrieveRate = min(w.phases[i].retrieveRate, 2)
	}
	return w
}

// TestTracingDoesNotPerturb pins that the traced run (profiler on,
// handler wrapped) simulates exactly what the untraced run does, and that
// an untraced trial repeats exactly at the same seed.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			a, err := runTrial(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.out.ok == 0 {
				t.Fatalf("no retrieval succeeded: %+v", a.out)
			}
			for _, traced := range []bool{false, true} {
				b, err := runTrial(w, 7, traced)
				if err != nil {
					t.Fatal(err)
				}
				if a.out != b.out || !slices.Equal(a.locate, b.locate) || !slices.Equal(a.complete, b.complete) {
					t.Errorf("traced=%v diverged:\n%+v\nvs\n%+v", traced, a.out, b.out)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	w := small(workloads[1])
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		m, err := measure(w, 3, time.Nanosecond, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		got := m.result.Metrics
		var gotNames []string
		for k := range got {
			gotNames = append(gotNames, k)
		}
		sort.Strings(gotNames)
		var wantNames []string
		for _, d := range c.want {
			wantNames = append(wantNames, d.Name)
			if g, ok := got[d.Name]; ok && g.Unit != d.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, g.Unit, d.Unit)
			}
		}
		sort.Strings(wantNames)
		if !slices.Equal(gotNames, wantNames) {
			t.Errorf("traced=%v metrics\n%v\nBENCHMARK.json declares\n%v", c.traced, gotNames, wantNames)
		}
		for k, v := range got {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %v", k, v.Value)
			}
		}
	}
}

func TestRoundQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []int
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]int{5}, 0.5, 5.5},
		{[]int{0, 0, 0, 1}, 0.5, 2.0 / 3},
		{[]int{3, 1, 2, 4}, 0.5, 3},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 9}, 0.9, 9},
	} {
		if got := roundQuantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("roundQuantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-overlay", "--trace", "2"},
		{"--workload", "hot-overlay", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
