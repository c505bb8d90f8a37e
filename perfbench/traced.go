package main

import (
	"fmt"
	"math/big"
	"time"

	"elmocomp"
	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ondemand"
	"elmocomp/internal/parallel"
	"elmocomp/internal/reduce"
	"elmocomp/internal/revsearch"
)

// traced runs every operation twice: once through the public entry
// point inside an elmocomp.compute span (that run is the operation's
// checked sample), and once decomposed into calls on the layers
// themselves, each inside its own span, under a bench.op root whose
// duration is the traced counterpart of the untraced latency. Serial
// double-description operations drive the row loop from here
// (replayRows) and are held to core.Run by the replay guard.
func (in *libInstance) traced(tr *tracer, m metrics) ([]sample, float64, error) {
	var out []sample
	var serialRun, parallelRun, wall float64
	var serialPairs int64
	for _, o := range in.ops {
		s, res := in.run(o, tr, m)
		if res != nil && (o.want > 0 || in.verifyBatch) {
			// Exact verification of the public result, timed on its own:
			// streamed modes (also verified by their check) and, with
			// verifyBatch, whole batch sets.
			var err error
			tr.do(o.name, "elmocomp.verify", 0, func() { err = res.Verify() })
			if err != nil && s.err == nil {
				s.err = fmt.Errorf("%s: %w", o.name, err)
			}
		}
		out = append(out, s)
		if o.dist {
			// The public call is the distrib layer's only entry point.
			wall += s.latency
			continue
		}
		root := tr.begin(o.name, "bench.op", 0)
		start := time.Now()
		d, err := decompose(tr, o, root, m)
		wall += time.Since(start).Seconds()
		tr.end(root)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", o.name, err)
		}
		if d.serial != nil {
			var ref *core.Result
			id := tr.begin(o.name, "core.run", 0)
			start := time.Now()
			ref, err = core.Run(d.problem, d.opts)
			elapsed := time.Since(start).Seconds()
			tr.end(id)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: core.Run: %w", o.name, err)
			}
			if err := replayGuard(d.serial, ref); err != nil {
				return nil, 0, fmt.Errorf("%s: replay guard: %w", o.name, err)
			}
			m.add("trace.replay_rows_checked", float64(len(ref.Stats)), "count")
			if o.cfg.StoreTier == elmocomp.StoreAuto {
				serialRun, serialPairs = elapsed, ref.TotalPairs()
			}
		}
		if d.parallel > 0 {
			parallelRun = d.parallel
		}
	}
	if serialRun > 0 && parallelRun > 0 {
		m.set("parallel.efficiency", serialRun/(2*parallelRun), "ratio")
	}
	if c := m["dnc.candidates"].Value; c > 0 && serialPairs > 0 {
		m.set("dnc.candidate_ratio", c/float64(serialPairs), "ratio")
	}
	return out, wall, nil
}

// decomposed is what one decomposed operation leaves for the guard and
// the cross-operation ratios.
type decomposed struct {
	problem  *nullspace.Problem
	opts     core.Options
	serial   *core.Result // replayed serial run
	parallel float64      // parallel.Run seconds
}

// decompose runs one operation through its layers: parse, reduce,
// kernel, then the driver or backend the operation's configuration
// selects, and for serial runs the codec round trip of the result.
func decompose(tr *tracer, o *libOp, root int, m metrics) (decomposed, error) {
	var d decomposed
	var net *model.Network
	var red *reduce.Reduced
	var err error
	tr.do(o.name, "model.parse", root, func() { net, err = model.ParseString(o.text) })
	if err != nil {
		return d, err
	}
	tr.do(o.name, "reduce.reduce", root, func() { red, err = reduce.Network(net, reduce.Options{MergeDuplicates: true}) })
	if err != nil {
		return d, err
	}
	rev := red.Reversibilities()
	cfg := o.cfg
	d.opts = core.Options{Workers: cfg.Workers}
	if cfg.StoreTier == elmocomp.StoreCompressed {
		d.opts.ForceStoreTier = core.TierCompressed
	}
	switch {
	case cfg.Backend == elmocomp.ReverseSearchBackend:
		var run *revsearch.Result
		id := tr.begin(o.name, "revsearch.run", root)
		run, err = revsearch.Run(red.N, rev, revsearch.Options{Workers: cfg.Workers})
		tr.end(id)
		if err != nil {
			return d, err
		}
		m.add("revsearch.bases", float64(run.Stats.Bases), "count")
		m.add("revsearch.pivots", float64(run.Stats.Pivots), "count")
		if float64(run.Stats.MaxDepth) > m["revsearch.max_depth"].Value {
			m.set("revsearch.max_depth", float64(run.Stats.MaxDepth), "count")
		}
		return d, checkSupports(o, core.CanonicalSupports(run.CoreResult()))
	case cfg.Backend == elmocomp.OnDemandBackend:
		obj, err := objectiveVector(red, cfg.Objective)
		if err != nil {
			return d, err
		}
		var st ondemand.Stats
		id := tr.begin(o.name, "ondemand.run", root)
		st, err = ondemand.Generate(red.N, rev, ondemand.Options{Objective: obj, MaxModes: cfg.MaxModes}, func(ondemand.Mode) {})
		tr.end(id)
		if err != nil {
			return d, err
		}
		if st.Emitted != o.want {
			return d, fmt.Errorf("decomposed stream emitted %d modes, want %d", st.Emitted, o.want)
		}
		m.add("ondemand.first_mode_s", st.FirstModeSeconds, "s")
		m.add("ondemand.bases", float64(st.Bases), "count")
		m.add("ondemand.emitted", float64(st.Emitted), "count")
		m.add("ondemand.duplicates", float64(st.Duplicates), "count")
		m.add("ondemand.verify_rejects", float64(st.VerifyRejects), "count")
		m.add("lp.pivots", float64(st.Pivots), "count")
		m.add("lp.phase1_pivots", float64(st.Phase1Pivots), "count")
		return d, nil
	case cfg.Algorithm == elmocomp.DivideAndConquer:
		dopts := dnc.Options{
			Parallel:         parallel.Options{Core: d.opts, Nodes: cfg.Nodes},
			GroupConcurrency: cfg.GroupConcurrency,
		}
		for _, name := range cfg.Partition {
			dopts.Partition = append(dopts.Partition, red.ColumnIndexByOriginal(name))
		}
		var run *dnc.Result
		id := tr.begin(o.name, "dnc.run", root)
		run, err = dnc.Run(red.N, rev, dopts)
		tr.end(id)
		if err != nil {
			return d, err
		}
		classes, classMax := 0, 0.0
		var walk func(s *dnc.Subproblem)
		walk = func(s *dnc.Subproblem) {
			if !s.Skipped && len(s.Children) == 0 {
				classes++
				if t := s.Phases.Total(); t > classMax {
					classMax = t
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		for _, s := range run.Subproblems {
			walk(s)
		}
		m.add("dnc.classes", float64(classes), "count")
		m.add("dnc.candidates", float64(run.TotalPairs()), "count")
		m.set("dnc.class_max_s", classMax, "s")
		m.set("dnc.peak_concurrent_bytes", float64(run.PeakConcurrentBytes), "bytes")
		if run.Sched != nil {
			m.add("dnc.steals", float64(run.Sched.Steals), "count")
			m.set("dnc.max_active", float64(run.Sched.MaxActive), "count")
		}
		return d, checkSupports(o, run.Supports)
	}

	h := nullspace.Heuristics{}
	tr.do(o.name, "nullspace.kernel", root, func() { d.problem, err = nullspace.New(red.N, rev, h) })
	if err != nil {
		return d, err
	}
	var res *core.Result
	if cfg.Algorithm == elmocomp.Parallel {
		var run *parallel.Result
		id := tr.begin(o.name, "parallel.run", root)
		start := time.Now()
		run, err = parallel.Run(d.problem, parallel.Options{Core: d.opts, Nodes: cfg.Nodes})
		d.parallel = time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return d, err
		}
		m.add("parallel.comm_bytes", float64(run.Comm.Bytes), "bytes")
		m.add("parallel.comm_messages", float64(run.Comm.Messages), "count")
		m.add("parallel.communicate_s", run.MaxPhases().Communicate, "s")
		res = run.Result
	} else {
		if res, err = replayRows(tr, o.name, root, d.problem, d.opts); err != nil {
			return d, err
		}
		d.serial = res
		addRowStats(m, res)
	}
	supports := core.CanonicalSupports(res)
	if err := checkSupports(o, supports); err != nil && knownDefects[o.name] == "" {
		return d, err
	}
	return d, codecRoundTrip(tr, o.name, root, red.N.Cols(), supports, m)
}

// checkSupports holds a decomposed run to the same reference as the
// public call.
func checkSupports(o *libOp, supports []bitset.Set) error {
	if o.want > 0 {
		return nil
	}
	ref := references[o.network]
	if fp := core.SupportsFingerprint(supports); len(supports) != ref.modes || fp != ref.fp {
		return fmt.Errorf("decomposed run: %d modes, fingerprint %016x; want %d, %016x", len(supports), fp, ref.modes, ref.fp)
	}
	return nil
}

// replayRows is core.Run's row loop driven from the benchmark, one span
// per call: the store holds the surviving set between rows, BeginRow
// partitions the current columns, the pool generates and tests the
// candidates, AssembleNext merges them into the next set.
func replayRows(tr *tracer, op string, root int, p *nullspace.Problem, opts core.Options) (*core.Result, error) {
	res := &core.Result{Problem: p}
	pool := core.NewPool(p, opts.Workers)
	store := core.NewStoreManager(opts)
	defer store.Release()
	var err error
	initial := core.InitialModeSet(p, linalg.DefaultTol)
	if tr.do(op, "store.hold", root, func() { err = store.Hold(initial) }); err != nil {
		return nil, err
	}
	for row := p.D; row < p.Q(); row++ {
		var set, next *core.ModeSet
		if tr.do(op, "store.materialize", root, func() { set, err = store.Materialize() }); err != nil {
			return nil, err
		}
		var it *core.RowIter
		tr.do(op, "core.begin_row", root, func() { it = core.BeginRow(p, set, row, opts) })
		var cands []*core.ModeSet
		tr.do(op, "core.generate", root, func() { cands = pool.GenerateRange(it, 0, it.Pairs(), &it.Stats) })
		if tr.do(op, "core.merge", root, func() { next, err = pool.AssembleNext(it, cands) }); err != nil {
			return nil, err
		}
		res.Stats = append(res.Stats, it.Stats)
		if tr.do(op, "store.hold", root, func() { err = store.Hold(next) }); err != nil {
			return nil, err
		}
	}
	final, err := store.Materialize()
	if err != nil {
		return nil, err
	}
	res.Modes = final
	res.Store = store.Stats()
	return res, nil
}

// replayGuard fails unless the replayed row loop made exactly the
// engine's per-row decisions and reached the engine's result: without
// it the per-layer numbers could come from a different program.
func replayGuard(replay, engine *core.Result) error {
	if len(replay.Stats) != len(engine.Stats) {
		return fmt.Errorf("replay ran %d rows, core.Run %d", len(replay.Stats), len(engine.Stats))
	}
	for i, a := range replay.Stats {
		b := engine.Stats[i]
		if a.Row != b.Row || a.Pairs != b.Pairs || a.Prefiltered != b.Prefiltered || a.Tested != b.Tested ||
			a.Accepted != b.Accepted || a.ModesOut != b.ModesOut {
			return fmt.Errorf("row %d: replay pairs/prefiltered/tested/accepted/out %d/%d/%d/%d/%d, core.Run %d/%d/%d/%d/%d",
				a.Row, a.Pairs, a.Prefiltered, a.Tested, a.Accepted, a.ModesOut,
				b.Pairs, b.Prefiltered, b.Tested, b.Accepted, b.ModesOut)
		}
	}
	fa := core.SupportsFingerprint(core.CanonicalSupports(replay))
	fb := core.SupportsFingerprint(core.CanonicalSupports(engine))
	if fa != fb {
		return fmt.Errorf("replay fingerprint %016x, core.Run %016x", fa, fb)
	}
	return nil
}

// addRowStats adds a serial run's per-row counts and the engine's own
// sampled phase timers to m.
func addRowStats(m metrics, res *core.Result) {
	for _, s := range res.Stats {
		m.add("core.pairs", float64(s.Pairs), "count")
		m.add("core.prefiltered", float64(s.Prefiltered), "count")
		m.add("linalg.rank_tests", float64(s.Tested), "count")
		m.add("linalg.rank_accepted", float64(s.Accepted), "count")
		m.add("bptree.tree_rejects", float64(s.TreeRejects), "count")
		m.add("core.gen_s_sampled", s.GenSeconds, "s")
		m.add("core.test_s_sampled", s.TestSeconds, "s")
	}
	if pb := float64(res.PeakBytes()); pb > m["core.peak_bytes"].Value {
		m.set("core.peak_bytes", pb, "bytes")
	}
	m.add("store.compressions", float64(res.Store.Compressions), "count")
	m.add("store.flat_bytes", float64(res.Store.FlatBytes), "bytes")
	m.add("store.held_bytes", float64(res.Store.HeldBytes), "bytes")
}

// codecRoundTrip encodes a canonical support list the way the job
// service's result cache does (Result.EncodeSupports) and decodes it
// back, checking the round trip.
func codecRoundTrip(tr *tracer, op string, root, q int, supports []bitset.Set, m metrics) error {
	var payload []byte
	tr.do(op, "core.encode", root, func() {
		set := core.NewModeSet(q, q, nil)
		set.Grow(len(supports))
		for _, b := range supports {
			words := make([]uint64, b.Words())
			for w := range words {
				words[w] = b.Word(w)
			}
			set.AppendMode(words, nil, nil, 0)
		}
		payload = set.Encode()
	})
	var back *core.ModeSet
	var err error
	tr.do(op, "core.decode", root, func() { back, err = core.DecodeModeSet(payload) })
	if err != nil {
		return fmt.Errorf("codec round trip: %w", err)
	}
	if back.Len() != len(supports) {
		return fmt.Errorf("codec round trip returned %d of %d modes", back.Len(), len(supports))
	}
	m.add("core.payload_bytes", float64(len(payload)), "bytes")
	m.add("core.payload_modes", float64(len(supports)), "count")
	return nil
}

// objectiveVector maps an objective by reaction name onto reduced
// columns, as the library's on-demand entry point does.
func objectiveVector(red *reduce.Reduced, obj map[string]string) ([]*big.Rat, error) {
	if len(obj) == 0 {
		return nil, nil
	}
	w := make([]*big.Rat, red.N.Cols())
	for name, v := range obj {
		c := red.ColumnIndexByOriginal(name)
		r, ok := new(big.Rat).SetString(v)
		if c < 0 || !ok {
			return nil, fmt.Errorf("objective entry %s=%s does not apply", name, v)
		}
		if w[c] == nil {
			w[c] = new(big.Rat)
		}
		w[c].Add(w[c], r)
	}
	return w, nil
}
