package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"elmocomp"
	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/server"
)

func TestTailPercentileLeavesTenSamplesAbove(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0},    // no percentile leaves ten above
		{20, 0.5},  // rank 10, ten above; p60 would leave eight
		{44, 0.75}, // rank 33, eleven above; p80 would leave eight
		{100, 0.9}, // rank 90, ten above; p95 would leave five
		{176, 0.9}, // p95 would leave eight
		{1000, 0.99},
	} {
		q := tailPercentile(c.n)
		if q != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, q, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestKindMedianIgnoresCrossingKinds(t *testing.T) {
	// Two kinds at 1 s and 4 s: the geometric mean of their medians is
	// 2 s whichever kind the pooled median would land on.
	for _, byKind := range []map[string][]float64{
		{"a": {1, 1, 1}, "b": {4, 4, 4}},
		{"a": {1, 1}, "b": {4, 4, 4, 4}},
		{"a": {1, 1, 1, 1}, "b": {4, 4}},
	} {
		if got := kindMedian(byKind); math.Abs(got-2) > 1e-12 {
			t.Errorf("kindMedian(%v) = %g, want 2", byKind, got)
		}
	}
}

func TestSlowestKindIsTheLargestKindMedian(t *testing.T) {
	// The pooled top two samples are 9 and 5; the kind medians 4 and 2.
	byKind := map[string][]float64{"a": {1, 2, 5}, "b": {3, 4, 9}}
	if got := slowestKind(byKind); got != 4 {
		t.Errorf("slowestKind = %g, want 4", got)
	}
}

func TestForgedFingerprintCountsAsFailed(t *testing.T) {
	ref := references["corner-1e6-s3"]
	references["forged"] = reference{ref.modes, ref.fp ^ 1, "test"}
	t.Cleanup(func() { delete(references, "forged") })
	o, err := newOp("dd", "corner-1e6-s3", elmocomp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := &libInstance{}
	if s, _ := in.run(o, nil, nil); s.err != nil {
		t.Fatalf("genuine reference failed: %v", s.err)
	}
	o.network, o.name = "forged", "dd/forged"
	s, _ := in.run(o, nil, nil)
	if s.err == nil {
		t.Fatal("a forged fingerprint passed the check")
	}
	rep := tally([]sample{s})
	if rep.Failed != 1 || rep.Correct {
		t.Fatalf("tally = %d failed, correct %v; want 1 failed, incorrect", rep.Failed, rep.Correct)
	}
}

func TestKnownDefectCountsAsFailedButKeepsTheRunCorrect(t *testing.T) {
	rep := tally([]sample{{op: "dd/corner-1e6-s1", err: fmt.Errorf("71 modes")}, {op: "dd/synth-medium"}})
	if rep.Failed != 1 || !rep.Correct || rep.Metrics["ok_frac"].Value != 0.5 {
		t.Fatalf("tally = %+v", rep)
	}
}

func TestHTTP429CountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"jobs: admission queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := &svcClient{base: srv.URL, http: srv.Client()}
	s := c.do(0, &svcRequest{label: "dd/svc-3", body: []byte(`{}`), after: -1})
	if s.err == nil || !strings.Contains(s.err.Error(), "429") {
		t.Fatalf("err = %v, want an HTTP 429 failure", s.err)
	}
	if rep := tally([]sample{s}); rep.Failed != 1 || rep.Correct {
		t.Fatalf("tally = %d failed, correct %v", rep.Failed, rep.Correct)
	}
}

// problemOf prepares a named network the way the serial driver does.
func problemOf(t *testing.T, name string) *nullspace.Problem {
	t.Helper()
	text, err := networkText(name)
	if err != nil {
		t.Fatal(err)
	}
	net, err := model.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReplayEqualsEngineOnSynthMedium(t *testing.T) {
	p := problemOf(t, "synth-medium")
	opts := core.Options{Workers: 1}
	replay, err := replayRows(newTracer(), "test", 0, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayGuard(replay, engine); err != nil {
		t.Fatal(err)
	}
	ref := references["synth-medium"]
	if fp := core.SupportsFingerprint(core.CanonicalSupports(replay)); fp != ref.fp {
		t.Fatalf("replay fingerprint %016x, reference %016x", fp, ref.fp)
	}
	// The guard must notice a replay that made a different decision.
	replay.Stats[len(replay.Stats)/2].Accepted++
	if replayGuard(replay, engine) == nil {
		t.Fatal("replay guard accepted a row whose accepted count differs")
	}
}

// inputs renders everything a workload's set-up generates from its
// seed: the operation list in order, with each network text and
// objective.
func inputs(t *testing.T, name string, seed int64) string {
	t.Helper()
	in, err := workloads[name].setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	var b strings.Builder
	for _, o := range in.(*libInstance).ops {
		fmt.Fprintf(&b, "%s %v\n%s\n", o.name, o.cfg.Objective, o.text)
	}
	return b.String()
}

func TestOneSeedGeneratesIdenticalInputs(t *testing.T) {
	for _, name := range []string{"dd-synth", "dd-yeast", "exact"} {
		a, b := inputs(t, name, 7), inputs(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two set-ups", name)
		}
		if name == "exact" && a == inputs(t, name, 8) {
			t.Errorf("%s: seeds 7 and 8 generated the same objectives", name)
		}
	}
	list := func(seed int64) []*svcRequest {
		var batch, streams []*svcRequest
		for i := 0; i < len(svcPool); i++ {
			batch = append(batch, &svcRequest{label: fmt.Sprint("dd", i), body: []byte(fmt.Sprint(i))})
		}
		for k := 0; k < 2; k++ {
			streams = append(streams, &svcRequest{label: fmt.Sprint("stream", k), ondemand: true})
		}
		return requestList(rand.New(rand.NewSource(seed)), batch, streams)
	}
	a, b := list(7), list(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("service: seed 7 generated different request lists")
	}
	fetched := map[string]int{}
	for _, r := range a {
		key := r.label
		if r.ondemand {
			key = "stream"
		}
		if r.supports {
			fetched[key]++
		}
	}
	for _, b := range a {
		key := b.label
		if b.ondemand {
			key = "stream"
		}
		if fetched[key] != 1 {
			t.Errorf("service: %s fetched with supports %d times, want once", key, fetched[key])
		}
	}
	for i, r := range a {
		if r.after >= i {
			t.Errorf("service: request %d waits for later request %d", i, r.after)
		}
		if r.after >= 0 && a[r.after].label != r.label && !strings.HasPrefix(r.label, "stream") {
			t.Errorf("service: request %d (%s) waits for %s", i, r.label, a[r.after].label)
		}
	}
	for _, n := range []string{"synth-3163", "corner-1e8-s3", "yeast1-m3", "svc-6"} {
		x, err := networkText(n)
		if err != nil {
			t.Fatal(err)
		}
		if y, _ := networkText(n); x != y {
			t.Errorf("%s: two generations differ", n)
		}
	}
}

func TestRefSetNamesSupportsLikeTheLibrary(t *testing.T) {
	text, err := networkText("svc-38")
	if err != nil {
		t.Fatal(err)
	}
	net, err := elmocomp.ParseNetworkString(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSet(text, res)
	if err != nil {
		t.Fatal(err)
	}
	r := &svcRequest{modes: res.Len(), fp: res.Fingerprint(), ref: ref, supports: true}
	fetched := &server.ResultResponse{Summary: server.RunSummary{Modes: res.Len(), Fingerprint: fmt.Sprintf("%016x", res.Fingerprint())}}
	for i := 0; i < res.Len(); i++ {
		fetched.Supports = append(fetched.Supports, res.SupportNames(i))
	}
	if err := r.check(nil, fetched); err != nil {
		t.Fatal(err)
	}
	fetched.Supports = fetched.Supports[1:]
	fetched.Supports = append(fetched.Supports, fetched.Supports[0])
	if r.check(nil, fetched) == nil {
		t.Fatal("a support list with a mode replaced passed the check")
	}
}
