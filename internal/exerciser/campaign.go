package exerciser

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"isolevel/internal/engine"
	"isolevel/internal/phenomena"
)

// Options configure a fuzz campaign.
type Options struct {
	// Seed is the campaign seed; schedule i's generator seed is derived
	// from (Seed, Start+i) by a splitmix64 step, so campaigns are
	// resumable and any single schedule can be rerun with -start i -n 1.
	Seed  int64
	N     int
	Start int
	// Params shape the generated schedules.
	Params Params
	// Shards is the engine stripe count (0 = each engine's default).
	Shards int
	// Workers is the number of campaign goroutines (0 or 1 = serial).
	// Aggregation is by schedule index and each schedule's replay is
	// fully deterministic (the runner's quiescence protocol plus lock
	// grant parking execute at most one engine op at a time), so reports
	// are byte-for-byte identical at any worker count, on any GOMAXPROCS,
	// with or without the race detector.
	Workers int
	// Mixed switches the campaign to per-transaction level assignments:
	// each schedule runs once per MixedFamilies() family, every
	// transaction at a level sampled (deterministically from the schedule
	// seed and family name) from that family's supported set, and traces
	// are judged by the per-transaction oracle — a phenomenon is a
	// violation only when charged to a transaction whose own level
	// forbids it.
	Mixed bool
	// Families restricts the engine families ran (nil/empty = all).
	Families []string
	// Levels restricts the isolation levels ran — for mixed campaigns,
	// the set levels are sampled from (nil/empty = all).
	Levels []engine.Level
	// OracleLevel, when non-nil, checks every trace against that level's
	// forbidden set instead of the executing levels' own — the testing
	// hook that makes findings manufacturable from correct engines (a
	// weak level's traces judged by a stronger level's contract is
	// exactly the "engine claims a level it does not implement" bug
	// class). In mixed mode it judges every transaction at that level
	// regardless of the level it executed at.
	OracleLevel *engine.Level
	// Shrink minimizes findings; MaxShrink caps how many (default 5 —
	// each minimization reruns the schedule many times). The report notes
	// when findings were left unminimized because of the cap.
	Shrink    bool
	MaxShrink int
}

// config is one cell of the campaign matrix: a (family, level) pair for
// uniform campaigns, or a family whose levels are sampled per transaction
// for mixed ones.
type config struct {
	fam   Family
	level engine.Level
	mixed bool
}

// LevelStats aggregates one campaign cell across the campaign.
type LevelStats struct {
	Family string
	Level  engine.Level
	// Mixed marks a per-transaction-assignment cell; Level is meaningless
	// there and the report prints "mixed".
	Mixed     bool
	Runs      int
	Commits   int
	Aborts    int
	Phenomena map[phenomena.ID]bool // union of observed profiles
	Findings  int
	// GapGrants sums the cell's lock-manager gap-lock grants across the
	// campaign: nonzero proves generated inserts ran under range activity
	// and reached the key-range phantom path (always zero for families
	// without a lock manager).
	GapGrants int64
}

func (st LevelStats) levelLabel() string {
	if st.Mixed {
		return "mixed"
	}
	return st.Level.String()
}

// Report is the campaign outcome.
type Report struct {
	Opts     Options
	Configs  int
	Runs     int
	Stats    []LevelStats
	Findings []Finding
	// Shrunk counts the findings the shrinker minimized (bounded by
	// Options.MaxShrink).
	Shrunk int
	// Divergences counts same-level profile disagreements between
	// families (informational; zero whenever, as today, each level is
	// implemented by exactly one family; not applicable to mixed
	// campaigns, whose families sample from different level sets).
	Divergences int
}

// splitmix64 is the per-index seed derivation (Steele et al.'s SplitMix64
// finalizer): statistically independent schedule seeds from (seed, index)
// with no shared rand stream across workers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ScheduleSeed derives the generator seed of campaign schedule index i.
func ScheduleSeed(campaignSeed int64, index int) int64 {
	return int64(splitmix64(uint64(campaignSeed) ^ splitmix64(uint64(index))))
}

func (o Options) configs() []config {
	famFilter := map[string]bool{}
	for _, f := range o.Families {
		famFilter[f] = true
	}
	lvlFilter := map[engine.Level]bool{}
	for _, l := range o.Levels {
		lvlFilter[l] = true
	}
	var out []config
	if o.Mixed {
		for _, fam := range MixedFamilies() {
			if len(famFilter) > 0 && !famFilter[fam.Name] {
				continue
			}
			if len(lvlFilter) > 0 {
				var kept []engine.Level
				for _, lvl := range fam.Levels {
					if lvlFilter[lvl] {
						kept = append(kept, lvl)
					}
				}
				if len(kept) == 0 {
					continue
				}
				fam.Levels = kept
			}
			out = append(out, config{fam: fam, mixed: true})
		}
		return out
	}
	for _, fam := range Families() {
		if len(famFilter) > 0 && !famFilter[fam.Name] {
			continue
		}
		for _, lvl := range fam.Levels {
			if len(lvlFilter) > 0 && !lvlFilter[lvl] {
				continue
			}
			out = append(out, config{fam: fam, level: lvl})
		}
	}
	return out
}

// indexResult is everything one schedule produced, pending ordered
// aggregation.
type indexResult struct {
	commits  []int // per config
	aborts   []int
	profiles []map[phenomena.ID]bool
	outcomes []string // canonical committed/aborted sets, per config
	gaps     []int64
	findings []Finding
	err      error
}

// outcomeKey renders a run's committed/aborted transaction sets in a
// canonical form, so two runs of the same schedule can be tested for
// identical outcomes before their phenomenon profiles are compared.
func outcomeKey(rr *RunResult) string {
	var c, a []int
	for txn, ok := range rr.Committed {
		if ok {
			c = append(c, txn)
		}
	}
	for txn, ok := range rr.Aborted {
		if ok {
			a = append(a, txn)
		}
	}
	sort.Ints(c)
	sort.Ints(a)
	return fmt.Sprintf("c%va%v", c, a)
}

// Run executes the campaign: N schedules, each replayed on every selected
// cell, checked against the (per-transaction) oracle, findings optionally
// shrunk. The report is deterministic in (Seed, Start, N, Params, Shards,
// Mixed, filters) — worker count only changes wall-clock time.
func Run(opts Options) (*Report, error) {
	if opts.N < 0 {
		opts.N = 0
	}
	if opts.Params.Txs == 0 {
		opts.Params = DefaultParams()
	}
	if opts.MaxShrink == 0 {
		opts.MaxShrink = 5
	}
	configs := opts.configs()
	if len(configs) == 0 {
		return nil, fmt.Errorf("exerciser: no engine/level selected")
	}
	oracle := NewOracle()
	// judgeFor is the contract a run's traces are held to: the executing
	// assignment, unless the campaign overrides the oracle level.
	judgeFor := func(exec Assign) Assign {
		if opts.OracleLevel != nil {
			return UniformAssign(*opts.OracleLevel)
		}
		return exec
	}

	results := make([]indexResult, opts.N)
	runIndex := func(i int) indexResult {
		seed := ScheduleSeed(opts.Seed, opts.Start+i)
		sched := Generate(seed, opts.Params)
		res := indexResult{
			commits:  make([]int, len(configs)),
			aborts:   make([]int, len(configs)),
			profiles: make([]map[phenomena.ID]bool, len(configs)),
			outcomes: make([]string, len(configs)),
			gaps:     make([]int64, len(configs)),
		}
		for ci, cfg := range configs {
			assign := UniformAssign(cfg.level)
			if cfg.mixed {
				assign = MixedAssign(seed, cfg.fam, opts.Params.Txs)
			}
			rr, err := RunOne(sched, cfg.fam, assign, opts.Shards)
			if err != nil {
				res.err = err
				return res
			}
			for _, ok := range rr.Committed {
				if ok {
					res.commits[ci]++
				}
			}
			for _, ok := range rr.Aborted {
				if ok {
					res.aborts[ci]++
				}
			}
			res.profiles[ci] = rr.Profile
			res.outcomes[ci] = outcomeKey(rr)
			res.gaps[ci] = rr.Locks.GapGrants
			for _, f := range Check(sched, rr, oracle, judgeFor(assign)) {
				f.Index = opts.Start + i
				res.findings = append(res.findings, f)
			}
		}
		// Cross-family differential: families running the same uniform
		// level must agree on the phenomenon profile of the same schedule —
		// provided they reached the same outcome. Deadlock-victim selection
		// legitimately differs between phantom protocols (a predicate-table
		// cycle need not exist under key-range locks and vice versa); when
		// the families abort different transactions the surviving histories
		// differ and their profiles are incomparable, so the equivalence
		// claim is conditional on matching committed/aborted sets. (Mixed
		// cells sample different level sets per family, so their profiles
		// legitimately differ.)
		if !opts.Mixed {
			byLevel := map[engine.Level]int{}
			for ci, cfg := range configs {
				if prev, ok := byLevel[cfg.level]; ok {
					if res.outcomes[prev] != res.outcomes[ci] {
						continue
					}
					if !sameProfile(res.profiles[prev], res.profiles[ci]) {
						res.findings = append(res.findings, Finding{
							Index:     opts.Start + i,
							SchedSeed: seed,
							Family:    configs[prev].fam.Name + " vs " + cfg.fam.Name,
							Assign:    UniformAssign(cfg.level),
							Kind:      "divergence",
							Detail: fmt.Sprintf("profiles differ: %s vs %s",
								idsString(res.profiles[prev]), idsString(res.profiles[ci])),
						})
					}
				} else {
					byLevel[cfg.level] = ci
				}
			}
		}
		return res
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > opts.N && opts.N > 0 {
		workers = opts.N
	}
	if workers <= 1 {
		for i := 0; i < opts.N; i++ {
			results[i] = runIndex(i)
		}
	} else {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					results[i] = runIndex(i)
				}
			}()
		}
		for i := 0; i < opts.N; i++ {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	}

	rep := &Report{Opts: opts, Configs: len(configs)}
	for _, cfg := range configs {
		rep.Stats = append(rep.Stats, LevelStats{
			Family: cfg.fam.Name, Level: cfg.level, Mixed: cfg.mixed,
			Phenomena: map[phenomena.ID]bool{},
		})
	}
	for i := 0; i < opts.N; i++ {
		res := results[i]
		if res.err != nil {
			return nil, res.err
		}
		for ci := range configs {
			st := &rep.Stats[ci]
			st.Runs++
			st.Commits += res.commits[ci]
			st.Aborts += res.aborts[ci]
			st.GapGrants += res.gaps[ci]
			for id := range res.profiles[ci] {
				st.Phenomena[id] = true
			}
			rep.Runs++
		}
		for _, f := range res.findings {
			if f.Kind == "divergence" {
				rep.Divergences++
			} else {
				for ci, cfg := range configs {
					if cfg.fam.Name != f.Family || cfg.mixed != f.Assign.Mixed() {
						continue
					}
					if !cfg.mixed && cfg.level != f.Assign.Uniform {
						continue
					}
					rep.Stats[ci].Findings++
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}

	if opts.Shrink {
		for fi := range rep.Findings {
			if rep.Shrunk >= opts.MaxShrink {
				break
			}
			f := &rep.Findings[fi]
			if f.Kind == "divergence" {
				continue
			}
			fam, ok := familyByName(f.Family, opts.Mixed)
			if !ok {
				continue
			}
			sched := Generate(f.SchedSeed, opts.Params)
			if min := ShrinkFinding(sched, *f, fam, opts.Shards, oracle, judgeFor(f.Assign)); min != nil {
				f.Minimized = min.History()
				rep.Shrunk++
			}
		}
	}
	return rep, nil
}

// familyByName resolves a finding's family for reproduction (the
// shrinker).
func familyByName(name string, mixed bool) (Family, bool) {
	fams := Families()
	if mixed {
		fams = MixedFamilies()
	}
	for _, fam := range fams {
		if fam.Name == name {
			return fam, true
		}
	}
	return Family{}, false
}

func sameProfile(a, b map[phenomena.ID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// GapGrants totals the aggregated gap-lock grants across every cell —
// the campaign-level proof that generated DML reached the gap path.
func (r *Report) GapGrants() int64 {
	var n int64
	for _, st := range r.Stats {
		n += st.GapGrants
	}
	return n
}

// Violations counts the non-divergence findings.
func (r *Report) Violations() int {
	n := 0
	for _, f := range r.Findings {
		if f.Kind != "divergence" {
			n++
		}
	}
	return n
}

// String renders the campaign report deterministically.
func (r *Report) String() string {
	var b strings.Builder
	p := r.Opts.Params
	mode := ""
	if r.Opts.Mixed {
		mode = " mode=mixed"
	}
	fmt.Fprintf(&b, "fuzz: seed=%d schedules=%d (start %d) txs=%d items=%d ops~%d abort=%.2f shards=%d%s\n",
		r.Opts.Seed, r.Opts.N, r.Opts.Start, p.Txs, p.Items, p.OpsPerTx, p.AbortFrac, r.Opts.Shards, mode)
	if r.Opts.OracleLevel != nil {
		fmt.Fprintf(&b, "oracle override: checking every trace against %s\n", *r.Opts.OracleLevel)
	}
	fmt.Fprintf(&b, "%-9s %-19s %6s %8s %8s %6s %4s  %s\n", "family", "level", "runs", "commits", "aborts", "gaps", "viol", "phenomena observed")
	for _, st := range r.Stats {
		fmt.Fprintf(&b, "%-9s %-19s %6d %8d %8d %6d %4d  %s\n",
			st.Family, st.levelLabel(), st.Runs, st.Commits, st.Aborts, st.GapGrants, st.Findings, idsString(st.Phenomena))
	}
	sort.SliceStable(r.Findings, func(i, j int) bool { return r.Findings[i].Index < r.Findings[j].Index })
	fmt.Fprintf(&b, "runs=%d findings=%d divergences=%d\n", r.Runs, r.Violations(), r.Divergences)
	if r.Opts.Shrink && r.Violations() > r.Shrunk {
		fmt.Fprintf(&b, "minimized %d of %d findings (raise -max-shrink for more)\n", r.Shrunk, r.Violations())
	}
	return b.String()
}

// Detail renders every finding (for -v and for failing CI output).
func (r *Report) Detail() string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s\n", f.String())
	}
	return b.String()
}
