package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netgen"
)

// spec is the part of BENCHMARK.json the result line must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMinimalRunEmitsEveryMetric runs every workload for a zero-length
// window, traced and untraced, and requires the result line to carry
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestMinimalRunEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Work {
		names = append(names, w.Name)
	}
	if names == nil || strings.Join(names, ", ") != workloadNames() {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %s", names, workloadNames())
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", []string{"0", "1"}[trace]}
			if code := cli(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json names %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%v: end-to-end metric %s = %v, want > 0", args, m.Name, got.Value)
				}
			}
		}
	}
}

// dropEgressDenies removes the deny clauses of every egress community
// filter, leaving its final permit: the configuration still parses, but
// routes tagged at one ISP attachment leak out at every other.
func dropEgressDenies(config string) string {
	var out []string
	skipping := false
	for _, line := range strings.Split(config, "\n") {
		if strings.HasPrefix(line, "route-map FILTER_COMM_OUT_") && strings.Contains(line, " deny ") {
			skipping = true
			continue
		}
		if skipping && strings.HasPrefix(line, " ") {
			continue
		}
		skipping = false
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestBrokenOutputCountsAsFailed shows that the independent check can
// fail: a verified job whose egress filters lose their deny clauses, a
// translation replaced by its Cisco source, and a paper job with the
// wrong prompt counts are each counted as failed.
func TestBrokenOutputCountsAsFailed(t *testing.T) {
	topo, err := netgen.RandomWith(12, netgen.RandomOpts{Seed: 5, ExtraEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{jobs: []jobInput{{topo: topo, llmSeed: 5}}, workers: 1}
	res, err := e.runJob(&e.jobs[0], nil, nil)
	if err != nil || !res.Verified {
		t.Fatalf("job: verified=%v err=%v", res != nil && res.Verified, err)
	}
	var outs outputs
	good := record(e, 0, 1, res, nil, &outs)
	if failed := checkAll(e, []jobRecord{good}, &outs); failed != 0 {
		t.Fatalf("intact output: %d failed, want 0 (%v)", failed, outs.list[0].err)
	}
	broken := map[string]string{}
	for name, cfg := range res.Configs {
		broken[name] = dropEgressDenies(cfg)
	}
	if reflect.DeepEqual(broken, res.Configs) {
		t.Fatal("no egress deny clause to remove")
	}
	res.Configs = broken
	bad := record(e, 0, 1, res, nil, &outs)
	if failed := checkAll(e, []jobRecord{good, bad}, &outs); failed != 1 {
		t.Fatalf("broken output: %d of 2 failed, want 1", failed)
	}
	if m := endToEnd([]jobRecord{good, bad}, usage{wall: 1, cpu: 1}, 1, 1); m.Failed != 1 || m.Correct {
		t.Errorf("result: failed=%d correct=%v, want 1 and false", m.Failed, m.Correct)
	}

	te, err := setupTranslate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	paper := -1
	for i, in := range te.jobs {
		if in.paper {
			paper = i
		}
	}
	tres, err := te.runJob(&te.jobs[paper], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var touts outputs
	ok := record(te, paper, 1, tres, nil, &touts)
	wrongCounts := ok
	wrongCounts.automated--
	tres.Configs = map[string]string{translationKey: te.source}
	notJunos := record(te, paper, 1, tres, nil, &touts)
	if failed := checkAll(te, []jobRecord{ok, wrongCounts, notJunos}, &touts); failed != 2 {
		t.Errorf("translation: %d of 3 failed, want 2", failed)
	}
}

// TestSeedGivesSameInputs checks that inputs are a function of the seed.
func TestSeedGivesSameInputs(t *testing.T) {
	a, err := randomGraphs(7, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := randomGraphs(7, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	c, err := randomGraphs(8, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different graphs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same graphs")
	}
}
