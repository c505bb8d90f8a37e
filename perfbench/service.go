package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"elmocomp"
	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/jobs"
	"elmocomp/internal/server"
)

// svcPool is the service workload's fixed pool of efmgen generator
// seeds (-layers 5 -width 5 -cross 10), each a 30-550 ms default DD run
// on one worker. The workload seed orders the requests over it.
var svcPool = []int64{3, 6, 12, 14, 24, 27, 31, 38}

// Shape of one service pass.
const (
	svcClients   = 2 // closed-loop HTTP clients
	svcExtraHits = 4 // pool networks requested a third time
	svcStreamK   = 3 // the yeast1-sub stream, later requested at k=1
)

// svcRequest is one job of the request list.
type svcRequest struct {
	label    string
	body     []byte // POST /v1/jobs body
	after    int    // index of the request that must complete first, or -1
	supports bool   // fetch the result with ?supports=1
	ondemand bool
	// Expected output: mode count, the fingerprint (batch jobs), and the
	// reference set every returned mode must belong to.
	modes int
	fp    uint64
	ref   *refSet
}

// svcInstance is the set-up service workload: the request list and
// the efmd binary that serves it. Every pass runs against a fresh efmd
// so each pass starts with cold caches.
type svcInstance struct {
	reqs []*svcRequest
	efmd string
	dir  string
	rsss []float64 // efmd's peak RSS in each pass
}

func (in *svcInstance) close() {}

// rss is the median over passes of efmd's peak RSS.
func (in *svcInstance) rss() (int64, error) { return int64(median(in.rsss)), nil }

// setupService generates the pool networks, computes every reference
// by a direct library run, and builds the seeded request list.
func setupService(seed int64) (instance, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in := &svcInstance{efmd: filepath.Join(filepath.Dir(exe), "efmd"), dir: filepath.Dir(exe)}
	if _, err := os.Stat(in.efmd); err != nil {
		return nil, fmt.Errorf("efmd binary: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var batch []*svcRequest
	for _, g := range svcPool {
		name := fmt.Sprintf("svc-%d", g)
		text, err := networkText(name)
		if err != nil {
			return nil, err
		}
		net, err := elmocomp.ParseNetworkString(text)
		if err != nil {
			return nil, err
		}
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		body, err := json.Marshal(server.SubmitRequest{Network: text, Options: server.RunOptions{Workers: 1}})
		if err != nil {
			return nil, err
		}
		ref, err := newRefSet(text, res)
		if err != nil {
			return nil, err
		}
		batch = append(batch, &svcRequest{label: "dd/" + name, body: body,
			fp: res.Fingerprint(), modes: res.Len(), ref: ref})
	}
	// The stream is unranked: under a ranked objective the cost of
	// yeast1-sub's second and third modes ranges from one to more than
	// four seconds with the objective, which would make this workload's
	// figures depend on the seed more than on the code. Ranked
	// requests are measured by the exact workload, at k=1. Streamed
	// modes are checked against yeast1-sub's reference set, from a
	// default DD run held to its committed fingerprint.
	subText, err := networkText("yeast1-sub")
	if err != nil {
		return nil, err
	}
	sub, err := elmocomp.ParseNetworkString(subText)
	if err != nil {
		return nil, err
	}
	res, err := elmocomp.ComputeEFMs(sub, elmocomp.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := checkBatch("yeast1-sub", res); err != nil {
		return nil, err
	}
	ref, err := newRefSet(subText, res)
	if err != nil {
		return nil, err
	}
	var streams []*svcRequest
	for _, k := range []int{svcStreamK, 1} {
		body, err := json.Marshal(server.SubmitRequest{Network: subText, Options: server.RunOptions{Backend: "ondemand", K: k}})
		if err != nil {
			return nil, err
		}
		streams = append(streams, &svcRequest{label: fmt.Sprintf("stream%d/yeast1-sub", k), body: body, ondemand: true,
			modes: k, ref: ref})
	}
	in.reqs = requestList(rng, batch, streams)
	return in, nil
}

// requestList orders one pass: the stream at k=3 first and its k=1
// prefix-cache hit last (it is the longest job: started late it would
// sit on the pass's critical path, and a k=1 waiting for it would idle a
// client, making the wall time depend on the seed); in between every
// pool network once as a cache miss in seeded order, and once more
// (svcExtraHits of them twice) as a cache hit at a seeded position after
// its miss. A repeat waits for its first request, so it hits instead of
// coalescing.
func requestList(rng *rand.Rand, batch, streams []*svcRequest) []*svcRequest {
	type item struct{ r, first *svcRequest }
	list := []item{{streams[0], nil}}
	var repeats []item
	for _, i := range rng.Perm(len(batch)) {
		list = append(list, item{batch[i], nil})
		repeats = append(repeats, item{batch[i], batch[i]})
	}
	for _, i := range rng.Perm(len(batch))[:svcExtraHits] {
		repeats = append(repeats, item{batch[i], batch[i]})
	}
	for _, t := range repeats {
		lo := 0
		for i, it := range list {
			if it.r == t.first && it.first == nil {
				lo = i + 1
			}
		}
		at := lo + rng.Intn(len(list)-lo+1)
		list = append(list[:at], append([]item{t}, list[at:]...)...)
	}
	list = append(list, item{streams[1], streams[0]})
	// Each job is fetched with supports once, on its first request or
	// its first repeat, so the bytes served per pass do not depend on
	// the seed.
	withSupports := map[*svcRequest]bool{streams[0]: rng.Intn(2) == 0}
	for _, b := range batch {
		withSupports[b] = rng.Intn(2) == 0
	}
	out := make([]*svcRequest, len(list))
	pos := map[*svcRequest]int{}
	repeated := map[*svcRequest]int{}
	for i, it := range list {
		r := *it.r
		r.after = -1
		if it.first != nil {
			r.after = pos[it.first]
			repeated[it.first]++
			r.supports = repeated[it.first] == 1 && !withSupports[it.first]
		} else {
			pos[it.r] = i
			r.supports = withSupports[it.r]
		}
		out[i] = &r
	}
	return out
}

// efmd is one running efmd process.
type efmd struct {
	cmd  *exec.Cmd
	base string
}

// startEfmd launches efmd on a free loopback port with two concurrent
// jobs and waits until it answers /healthz.
func (in *svcInstance) startEfmd() (*efmd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	spill := filepath.Join(in.dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(in.efmd, "-addr", addr, "-concurrency", strconv.Itoa(svcClients), "-spill-dir", spill)
	cmd.Env = append(os.Environ(), "TMPDIR="+spill)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e := &efmd{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(e.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.stop()
			return nil, fmt.Errorf("efmd did not become healthy on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates efmd and waits for it to exit.
func (e *efmd) stop() {
	_ = e.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = e.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = e.cmd.Process.Kill()
		<-done
	}
}

// varz fetches the manager's counters.
func (e *efmd) varz() (jobs.Stats, error) {
	var st jobs.Stats
	resp, err := http.Get(e.base + "/varz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (in *svcInstance) pass() ([]sample, float64, error) { return in.servePass(nil, nil) }

func (in *svcInstance) traced(tr *tracer, m metrics) ([]sample, float64, error) {
	return in.servePass(tr, m)
}

// servePass runs one pass against a fresh efmd and returns the samples
// and the pass wall time. With a tracer, HTTP calls are spanned and
// the job counters are added to m.
func (in *svcInstance) servePass(tr *tracer, m metrics) ([]sample, float64, error) {
	e, err := in.startEfmd()
	if err != nil {
		return nil, 0, err
	}
	defer e.stop()
	c := &svcClient{base: e.base, tr: tr, m: m, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients},
		Timeout:   2 * time.Minute,
	}}
	samples := make([]sample, len(in.reqs))
	done := make([]chan struct{}, len(in.reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(in.reqs) {
					return
				}
				r := in.reqs[i]
				if r.after >= 0 {
					<-done[r.after]
				}
				samples[i] = c.do(i, r)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	rss, err := peakRSS(strconv.Itoa(e.cmd.Process.Pid))
	if err != nil {
		return nil, 0, err
	}
	in.rsss = append(in.rsss, float64(rss))
	if m != nil {
		st, err := e.varz()
		if err != nil {
			return nil, 0, err
		}
		m.add("jobs.runs_started", float64(st.Counters.RunsStarted), "count")
		m.add("jobs.cache_hits", float64(st.Counters.CacheHits), "count")
		m.add("jobs.prefix_hits", float64(st.Counters.PrefixHits), "count")
		m.add("jobs.coalesced", float64(st.Counters.Coalesced), "count")
		m.add("jobs.submitted", float64(st.Counters.Submitted), "count")
	}
	return samples, wall, nil
}

// svcClient issues one request at a time: submit, follow the event
// stream to a terminal state, fetch and check the result.
type svcClient struct {
	base string
	http *http.Client
	tr   *tracer
	m    metrics
	mu   sync.Mutex // guards m
}

func (c *svcClient) do(i int, r *svcRequest) sample {
	op := fmt.Sprintf("%d:%s", i, r.label)
	root := c.tr.begin(op, "bench.request", 0)
	defer c.tr.end(root)
	s := sample{op: r.label}
	start := time.Now()
	sp := c.tr.begin(op, "server.submit", root)
	var st server.JobStatus
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err == nil {
		err = decodeStatus(resp, &st)
	}
	c.tr.end(sp)
	if err != nil {
		s.err = fmt.Errorf("%s: submit: %w", r.label, err)
		return s
	}
	s.class = "miss"
	switch {
	case st.Cached && r.ondemand:
		s.class = "prefix"
	case st.Cached:
		s.class = "hit"
	case r.ondemand:
		s.class = "stream"
	}

	sp = c.tr.begin(op, "server.events", root)
	evs, first, err := c.events(st.ID, start)
	c.tr.end(sp)
	s.latency = time.Since(start).Seconds()
	s.firstMode = s.latency
	if first > 0 {
		s.firstMode = first
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", r.label, err)
		return s
	}
	sp = c.tr.begin(op, "server.result", root)
	res, n, err := c.result(st.ID, r.supports)
	c.tr.end(sp)
	if err == nil {
		err = r.check(evs, res)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", r.label, err)
	}
	if c.m != nil {
		c.mu.Lock()
		for _, ev := range evs {
			if ev.Type == "state" && ev.State == "running" {
				c.m.add("jobs.queue_wait_s", ev.Elapsed, "s")
				c.m.add("jobs.run_s", evs[len(evs)-1].Elapsed-ev.Elapsed, "s")
			}
		}
		if r.supports {
			c.m.add("server.result_bytes", float64(n), "bytes")
			c.m.add("server.supports_results", 1, "count")
		}
		c.mu.Unlock()
	}
	return s
}

// decodeStatus reads a submit response; anything but 200/202 (a 429
// from a full queue, a 400) is an error.
func decodeStatus(resp *http.Response, st *server.JobStatus) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(st)
}

// events follows a job's NDJSON stream to its terminal state and
// returns the events and the time of the first mode event.
func (c *svcClient) events(id string, start time.Time) ([]jobs.Event, float64, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var evs []jobs.Event
	first := 0.0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, 0, err
		}
		if ev.Type == "mode" && first == 0 {
			first = time.Since(start).Seconds()
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(evs) == 0 {
		return nil, 0, fmt.Errorf("empty event stream")
	}
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != "done" {
		return evs, first, fmt.Errorf("job ended %s %s", last.State, last.Msg)
	}
	return evs, first, nil
}

// result fetches a finished job's result and its body size.
func (c *svcClient) result(id string, supports bool) (*server.ResultResponse, int, error) {
	url := c.base + "/v1/jobs/" + id + "/result"
	if supports {
		url += "?supports=1"
	}
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var res server.ResultResponse
	return &res, len(body), json.Unmarshal(body, &res)
}

// check compares a finished job with its reference: the mode count,
// the fingerprint of a batch job, every streamed mode, and the fetched
// supports (their fingerprint for a batch job, membership for a
// stream).
func (r *svcRequest) check(evs []jobs.Event, res *server.ResultResponse) error {
	if res.Summary.Modes != r.modes {
		return fmt.Errorf("%d modes, want %d", res.Summary.Modes, r.modes)
	}
	if want := fmt.Sprintf("%016x", r.fp); !r.ondemand && res.Summary.Fingerprint != want {
		return fmt.Errorf("fingerprint %s, want %s", res.Summary.Fingerprint, want)
	}
	rank := 0
	for _, ev := range evs {
		if ev.Type != "mode" {
			continue
		}
		rank++
		b, err := r.ref.support(ev.Support, true)
		if err != nil || ev.Rank != rank || !r.ref.has(b) {
			return fmt.Errorf("streamed mode %d (%v) is not an EFM of the reference set", ev.Rank, ev.Support)
		}
	}
	if r.ondemand && rank != 0 && rank != r.modes {
		return fmt.Errorf("streamed %d modes, want %d", rank, r.modes)
	}
	if !r.supports {
		return nil
	}
	if len(res.Supports) != r.modes {
		return fmt.Errorf("%d supports, want %d", len(res.Supports), r.modes)
	}
	got := make([]bitset.Set, len(res.Supports))
	for i, names := range res.Supports {
		b, err := r.ref.support(names, false)
		if err != nil {
			return err
		}
		if r.ondemand && !r.ref.has(b) {
			return fmt.Errorf("support %v is not in the reference set", names)
		}
		got[i] = b
	}
	if r.ondemand {
		return nil
	}
	sort.Slice(got, func(a, b int) bool { return got[a].Compare(got[b]) < 0 })
	if fp := core.SupportsFingerprint(got); fp != r.fp {
		return fmt.Errorf("fetched supports have fingerprint %016x, want %016x", fp, r.fp)
	}
	return nil
}
