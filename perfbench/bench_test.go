package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"h2privacy/internal/h2"
)

// TestMetricNamesMatchBenchmarkJSON pins the metrics and workloads the
// program prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	// json.Unmarshal skips the end_to_end bounds, which the program does
	// not use.
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n declared %v\n printed  %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n declared %v\n printed  %v", decl.PerLayer, perLayer)
	}
	var declared, run []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads() {
		run = append(run, w.name)
	}
	if !reflect.DeepEqual(declared, run) {
		t.Errorf("workloads: declared %v, runnable %v", declared, run)
	}
}

// TestKernelsMatchCounters checks that each kernel, fed one traced trial's
// inputs, does exactly the work the trial's counter reports.
func TestKernelsMatchCounters(t *testing.T) {
	wl, _ := findWorkload("attack")
	tb, _, c, err := tracedTrial(wl.trial(trialSeed(3, 0)), true)
	if err != nil {
		t.Fatal(err)
	}
	in := kernelInputOf(tb, c)
	want := func(name string, got int, counter float64) {
		t.Helper()
		if float64(got) != counter {
			t.Errorf("%s kernel did %d units, trial counter says %v", name, got, counter)
		}
	}
	want("simtime", simtimeKernel(in.events, in.depth), c["events"])
	n, err := netsimKernel(in.packets)
	if err != nil {
		t.Fatal(err)
	}
	want("netsim", n, c["packets"])
	if _, delivered, err := tcpKernel(in.tcpBytes); err != nil {
		t.Fatal(err)
	} else if delivered != in.tcpBytes[0]+in.tcpBytes[1] {
		t.Errorf("tcpsim kernel delivered %d bytes, trial sent %d", delivered, in.tcpBytes[0]+in.tcpBytes[1])
	}
	n, err = tlsKernel(in.records)
	if err != nil {
		t.Fatal(err)
	}
	want("tlsrec", n, c["records"])
	n, err = h2Kernel(in.h2Sent, in.dataBytes)
	if err != nil {
		t.Fatal(err)
	}
	want("h2", n, c["frames"])
	blocks := [2]int{in.h2Sent[0][h2.FrameHeaders], in.h2Sent[1][h2.FrameHeaders] + in.h2Sent[1][h2.FramePushPromise]}
	n, err = hpackKernel(in.site, in.plan, blocks)
	if err != nil {
		t.Fatal(err)
	}
	want("hpack", n, float64(blocks[0]+blocks[1]))
	bodies := 0
	for _, st := range in.plan.Steps {
		bodies += in.site.Object(st.ObjectID).Size
	}
	want("website", websiteKernel(in.site, in.plan), float64(bodies))
	packets, records := captureKernel(replayEvents(in.packetLog))
	want("capture", packets, c["capture_packets"])
	want("capture replay records", records, c["records"])
	want("predict", predictKernel(in.site, in.plan, in.records), c["records"])
}

var digestRE = regexp.MustCompile(`perfbench (checked|traced) trials=2 .*?digest=([0-9a-f]+)`)

// TestSmokeEveryWorkload runs every workload for one round of two trials,
// one per worker, in both modes and checks the result lines, and that the
// timed run's checked trials and the traced run's trials, both unpooled,
// agree with their pooled runs and with each other.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trial of every workload")
	}
	for _, wl := range workloads() {
		wl.batchPerWorker, wl.warmPerWorker, wl.outcomeTrials, wl.checkedTrials = 1, 1, 2, 2
		p := runParams{seed: 5, workers: 2, setups: 1}
		var out bytes.Buffer
		timedLine, ok, err := runTimed(wl, p, &out)
		if err != nil || !ok {
			t.Fatalf("%s timed: ok=%t err=%v\n%s", wl.name, ok, err, out.String())
		}
		checkLine(t, wl.name+" timed", timedLine, endToEnd)
		tracedLine, ok, err := runTraced(wl, p, &out)
		if err != nil || !ok {
			t.Fatalf("%s traced: ok=%t err=%v\n%s", wl.name, ok, err, out.String())
		}
		checkLine(t, wl.name+" traced", tracedLine, perLayer)
		m := digestRE.FindAllStringSubmatch(out.String(), -1)
		if len(m) != 2 || m[0][2] != m[1][2] {
			t.Errorf("%s: checked and traced digests differ: %v\n%s", wl.name, m, out.String())
		}
	}
}

func checkLine(t *testing.T, what, line string, specs []metricSpec) {
	t.Helper()
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("%s: %v: %s", what, err, line)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
	}
	var got, want []string
	for name, v := range r.Metrics {
		got = append(got, name+" "+v.Unit)
	}
	for _, s := range specs {
		want = append(want, s.Name+" "+s.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s prints %v, want %v", what, got, want)
	}
}
