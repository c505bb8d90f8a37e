package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"elmocomp"
	"elmocomp/internal/distrib"
)

// sample is the outcome of one operation.
type sample struct {
	op string
	// latency runs from the call to the complete result; firstMode to
	// the first mode the caller holds (a batch result delivers every
	// mode at completion, so there the two are equal).
	latency, firstMode float64
	// err is non-nil when the operation errored, was refused, or its
	// output failed the check against its reference.
	err error
	// class sorts service jobs: "miss", "hit", "stream" or "prefix".
	class string
}

// libOp is one operation of a library workload: a generated network
// text, a configuration of the public entry point, and the check its
// output must pass.
type libOp struct {
	name    string
	network string
	text    string
	cfg     elmocomp.Config
	dist    bool // dispatch to the in-process distrib workers
	// want > 0 marks an on-demand stream of that many modes; ref is the
	// reference set the streamed modes must belong to (nil when the
	// network's EFM set is too large to hold), and minVal the objective
	// value the first ranked mode must have (nil when unknown).
	want   int
	ref    *refSet
	minVal *big.Rat
}

// check compares an operation's output with its reference.
func (o *libOp) check(res *elmocomp.Result) error {
	if o.want == 0 {
		return checkBatch(o.network, res)
	}
	if err := checkStream(res, o.want, o.ref); err != nil {
		return err
	}
	if o.minVal != nil {
		if got := res.OnDemand.Values[0]; got != o.minVal.RatString() {
			return fmt.Errorf("first ranked mode has objective value %s, reference minimum is %s", got, o.minVal.RatString())
		}
	}
	return nil
}

// libInstance is a set-up library workload: its operation list in
// seeded order, plus the distrib workers the dist operation uses.
type libInstance struct {
	ops     []*libOp
	workers []*distrib.Worker
	addrs   []string
	// verifyBatch makes the traced run verify batch results exactly too
	// (Result.Verify), not only streams.
	verifyBatch bool
}

func (in *libInstance) close() {
	for _, w := range in.workers {
		w.Close()
	}
}

func (in *libInstance) rss() (int64, error) { return peakRSS("self") }

// pass runs the operation list once through the public entry points.
// Its wall time is the sum of the operations' latencies, so output
// checks do not count.
func (in *libInstance) pass() ([]sample, float64, error) {
	out := make([]sample, 0, len(in.ops))
	wall := 0.0
	for _, o := range in.ops {
		s, _ := in.run(o, nil, nil)
		wall += s.latency
		out = append(out, s)
	}
	return out, wall, nil
}

// run times one operation as a library user sees it: parse the input
// text, call the entry point, hold the result. The output check runs
// after the clock stops. With a tracer the timed part is an
// elmocomp.compute span, and m collects the distrib layer's counters of
// a dist operation.
func (in *libInstance) run(o *libOp, tr *tracer, m metrics) (sample, *elmocomp.Result) {
	var first time.Duration
	span := tr.begin(o.name, "elmocomp.compute", 0)
	start := time.Now()
	net, err := elmocomp.ParseNetworkString(o.text)
	var res *elmocomp.Result
	if err == nil {
		cfg := o.cfg
		if cfg.Backend == elmocomp.OnDemandBackend {
			cfg.OnMode = func(elmocomp.ModeEvent) {
				if first == 0 {
					first = time.Since(start)
				}
			}
		}
		if o.dist {
			res, err = in.computeDist(net, cfg, m)
		} else {
			res, err = elmocomp.ComputeEFMs(net, cfg)
		}
	}
	lat := time.Since(start).Seconds()
	tr.end(span)
	s := sample{op: o.name, latency: lat, firstMode: lat}
	if first > 0 {
		s.firstMode = first.Seconds()
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", o.name, err)
		return s, nil
	}
	if err := o.check(res); err != nil {
		s.err = fmt.Errorf("%s: %w", o.name, err)
	}
	return s, res
}

// computeDist runs the distributed divide-and-conquer entry point on a
// fresh coordinator pool over the instance's workers.
func (in *libInstance) computeDist(net *elmocomp.Network, cfg elmocomp.Config, m metrics) (*elmocomp.Result, error) {
	pool := distrib.NewPool(in.addrs, distrib.PoolOptions{ClassTimeout: 2 * time.Minute})
	defer pool.Close()
	res, err := elmocomp.ComputeEFMsDistributed(net, cfg, nil, pool)
	if err != nil || m == nil {
		return res, err
	}
	for _, w := range pool.Stats() {
		m.add("distrib.payload_bytes", float64(w.PayloadBytes), "bytes")
		m.add("distrib.wire_bytes", float64(w.WireBytes), "bytes")
	}
	if sc := res.Scheduler; sc != nil {
		m.add("distrib.classes", float64(sc.RemoteClasses), "count")
		m.add("distrib.requeues", float64(sc.RemoteRequeues), "count")
	}
	return res, nil
}

// workerPorts are the loopback ports of the distrib workers. The
// coordinator homes each class on a worker by consistent hash over the
// worker addresses, so ephemeral ports would give every run its own
// class placement and the dist operation a different time; a fleet's
// addresses are fixed, and so are these. They lie below the Linux
// ephemeral range.
var workerPorts = []int{29173, 29174}

// startWorkers starts n distrib workers on loopback with their class
// caches off, so a repeated pass recomputes every class. A worker whose
// fixed port is taken falls back to an ephemeral one, with a note.
func (in *libInstance) startWorkers(n int) error {
	for i := 0; i < n; i++ {
		opts := distrib.WorkerOptions{CacheClasses: -1}
		addr := fmt.Sprintf("127.0.0.1:%d", workerPorts[i%len(workerPorts)])
		w, err := distrib.NewWorker(addr, opts)
		if err != nil {
			fmt.Printf("note: %v; distrib worker %d on an ephemeral port\n", err, i)
			w, err = distrib.NewWorker("127.0.0.1:0", opts)
		}
		if err != nil {
			return err
		}
		go w.Serve()
		in.workers = append(in.workers, w)
		in.addrs = append(in.addrs, w.Addr())
	}
	return nil
}

// newOp builds a batch operation on a named network.
func newOp(name, network string, cfg elmocomp.Config) (*libOp, error) {
	text, err := networkText(network)
	if err != nil {
		return nil, err
	}
	return &libOp{name: name + "/" + network, network: network, text: text, cfg: cfg}, nil
}

// warmUp runs one operation of the list once, checked, so lazy
// initialisation (code paging, heap growth, the distrib workers'
// reduction caches) is paid during set-up.
func (in *libInstance) warmUp(name string) error {
	for _, o := range in.ops {
		if o.name == name {
			s, _ := in.run(o, nil, nil)
			return s.err
		}
	}
	return fmt.Errorf("no operation %s to warm up with", name)
}

// setupDDSynth: the default double-description path (serial driver,
// unsplit rank test, one worker) on the synth ladder and the scaled
// coefficient corners.
func setupDDSynth(seed int64) (instance, error) {
	in := &libInstance{verifyBatch: true}
	for _, n := range []string{"synth-3163", "synth-medium", "corner-1e6-s1", "corner-1e6-s3", "corner-1e8-s3"} {
		o, err := newOp("dd", n, elmocomp.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, o)
	}
	shuffle(seed, in.ops)
	return in, in.warmUp("dd/synth-medium")
}

// yeastConfigs are the five ways dd-yeast runs yeast1-m3.
func yeastConfigs() []struct {
	name string
	cfg  elmocomp.Config
	dist bool
} {
	dnc := elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Partition: paperPartition, Nodes: 1, Workers: 1}
	sched := dnc
	sched.GroupConcurrency = 2
	return []struct {
		name string
		cfg  elmocomp.Config
		dist bool
	}{
		{"serial", elmocomp.Config{Workers: 1}, false},
		{"parallel", elmocomp.Config{Algorithm: elmocomp.Parallel, Nodes: 2, Workers: 1}, false},
		{"dnc", sched, false},
		{"dist", dnc, true},
		{"compressed", elmocomp.Config{Workers: 1, StoreTier: elmocomp.StoreCompressed}, false},
	}
}

// setupDDYeast: the paper's Network I cut to seconds, through every
// double-description driver.
func setupDDYeast(seed int64) (instance, error) {
	in := &libInstance{}
	for _, c := range yeastConfigs() {
		o, err := newOp(c.name, "yeast1-m3", c.cfg)
		if err != nil {
			return nil, err
		}
		o.dist = c.dist
		in.ops = append(in.ops, o)
	}
	shuffle(seed, in.ops)
	if err := in.startWorkers(2); err != nil {
		in.close()
		return nil, err
	}
	if err := in.warmUp("dnc/yeast1-m3"); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// Operation counts of the exact workload: ranked k=1 requests per
// network in one pass.
const (
	exactFirstYeast = 16
	exactFirstSub   = 26
)

// setupExact: the exact big.Rat backends on yeast1-sub and yeast1.
// The reference set of yeast1-sub comes from a default DD run checked
// against its committed fingerprint; it supplies the membership check
// of every streamed mode and the minimum objective value each ranked
// k=1 request on yeast1-sub must return.
func setupExact(seed int64) (instance, error) {
	in := &libInstance{}
	rng := rand.New(rand.NewSource(seed))
	subText, err := networkText("yeast1-sub")
	if err != nil {
		return nil, err
	}
	yeastText, err := networkText("yeast1")
	if err != nil {
		return nil, err
	}
	net, err := elmocomp.ParseNetworkString(subText)
	if err != nil {
		return nil, err
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
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

	rev, err := newOp("revsearch", "yeast1-sub", elmocomp.Config{Backend: elmocomp.ReverseSearchBackend, Workers: 1})
	if err != nil {
		return nil, err
	}
	stream, err := newOp("stream10", "yeast1-sub", elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: 10})
	if err != nil {
		return nil, err
	}
	stream.want, stream.ref = 10, ref
	in.ops = append(in.ops, rev, stream)

	for _, spec := range []struct {
		network, text string
		n             int
		ref           *refSet
	}{
		{"yeast1", yeastText, exactFirstYeast, nil},
		{"yeast1-sub", subText, exactFirstSub, ref},
	} {
		pool, err := objectiveReactions(spec.text)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.n; i++ {
			obj := drawObjective(rng, pool)
			o := &libOp{
				name: "first/" + spec.network, network: spec.network, text: spec.text,
				cfg:  elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: 1, Objective: obj},
				want: 1, ref: spec.ref,
			}
			if spec.ref != nil {
				if o.minVal, err = spec.ref.minValue(obj); err != nil {
					return nil, err
				}
			}
			in.ops = append(in.ops, o)
		}
	}
	shuffle(seed, in.ops)
	return in, in.warmUp("first/yeast1")
}

// shuffle orders a list by the workload seed.
func shuffle[T any](seed int64, xs []T) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
