package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"testing"

	"repro/dpgraph"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func quiet(t *testing.T) {
	stderr = io.Discard
	t.Cleanup(func() { stderr = os.Stderr })
}

func smoke(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, smoke: true}
}

// TestSmoke runs every workload at the small size, untraced and traced,
// and requires every metric BENCHMARK.json names, with its unit, and
// every answer correct.
func TestSmoke(t *testing.T) {
	quiet(t)
	c := loadContract(t)
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(smoke(w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac = %v, want 1", w.Name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// plantedOracle answers one pair wrong: the first pair it is asked
// about, from then on, on both the point and the batch path.
type plantedOracle struct {
	dpgraph.BatchOracle
	mu    sync.Mutex
	wrong *dpgraph.VertexPair
}

func (p *plantedOracle) isWrong(s, t int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wrong == nil {
		p.wrong = &dpgraph.VertexPair{S: s, T: t}
	}
	return *p.wrong == dpgraph.VertexPair{S: s, T: t}
}

func (p *plantedOracle) Distance(s, t int) (float64, error) {
	d, err := p.BatchOracle.Distance(s, t)
	if p.isWrong(s, t) {
		d++
	}
	return d, err
}

func (p *plantedOracle) DistancesInto(pairs []dpgraph.VertexPair, out []float64) error {
	err := p.BatchOracle.DistancesInto(pairs, out)
	for i, q := range pairs {
		if p.isWrong(q.S, q.T) {
			out[i]++
		}
	}
	return err
}

// TestPlantedWrongReference makes one reference answer wrong and
// requires the output check to count it: ok_frac below 1, correct false.
func TestPlantedWrongReference(t *testing.T) {
	quiet(t)
	referenceHook = func(o dpgraph.BatchOracle) dpgraph.BatchOracle { return &plantedOracle{BatchOracle: o} }
	defer func() { referenceHook = nil }()
	res, err := execute(smoke("navigate", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || !(res.Metrics["ok_frac"].Value < 1) {
		t.Fatalf("planted wrong reference went unnoticed: correct=%v failed=%d ok_frac=%v",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestScanValues reads point, batch and stream answers, including an
// unreachable pair.
func TestScanValues(t *testing.T) {
	body := []byte(`{"s":1,"t":2,"value":3.25}` + "\n" + `{"s":1,"t":5,"value":null,"unreachable":true}` + "\n" +
		`{"mechanism":"release","count":1,"results":[{"s":0,"t":1,"value":1e-3}]}`)
	got := scanValues(body, nil)
	if len(got) != 3 || got[0] != 3.25 || !(got[1] > 1e308) || got[2] != 1e-3 {
		t.Fatalf("scanValues = %v", got)
	}
}
