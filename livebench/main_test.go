package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunEmitsEveryMetric runs every workload briefly in both modes and
// checks that each emits exactly the declared metrics with their units and
// passes the correctness gate.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		w := w
		w.minWindow = 0 // a short window; p99 is not the point here
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var out bytes.Buffer
			res, err := bench(w, 7, 0.2, traced, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s in %q, want %q", w.name, traced, name, got.Unit, unit)
				case !strings.Contains(out.String(), name):
					t.Errorf("%s traced=%v: metric %s not printed by name", w.name, traced, name)
				}
			}
			if !strings.HasPrefix(out.String(), fingerprintPrefix) {
				t.Errorf("%s: output does not start with the host fingerprint", w.name)
			}
		}
	}
}

// TestGateRejectsPerturbedParams checks that the correctness gate accepts
// the reference's own trajectory and rejects a perturbed copy, for the
// lossless and the int8 comparison alike.
func TestGateRejectsPerturbedParams(t *testing.T) {
	for _, name := range []string{"tiny-flat", "wide-int8"} {
		w, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReference(w, in).at(200)
		if err != nil {
			t.Fatal(err)
		}
		if err := gate(w, in, ref, ref); err != nil {
			t.Fatalf("%s: gate rejects the reference itself: %v", name, err)
		}
		bad := append([]float64(nil), ref...)
		if w.codec.Lossless() {
			bad[3] += 1e-4
		} else {
			for i := range bad {
				bad[i] *= 1.5
			}
		}
		if err := gate(w, in, bad, ref); err == nil {
			t.Errorf("%s: gate accepted perturbed params", name)
		}
	}
}

// TestCompareRefusesOtherHosts checks that saved outputs from different
// hosts are not compared, while two seeds on one host are.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		var b bytes.Buffer
		if err := printFingerprint(&b, h); err != nil {
			t.Fatal(err)
		}
		b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"iter_per_s":{"value":100,"unit":"1/s"}}}` + "\n")
		path := dir + "/" + name
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := host{CPU: "cpu-a", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x", Workload: "tiny-flat", Seed: 1, Seconds: 10}
	a := write("a", h)
	h.Seed = 2
	b := write("b", h)
	h.CPU = "cpu-b"
	c := write("c", h)
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatalf("same host, other seed: %v", err)
	}
	if err := compareFiles(&out, a, c); err == nil {
		t.Fatal("compared outputs from different CPUs")
	}
}
