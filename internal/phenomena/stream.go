package phenomena

import (
	"sort"

	"isolevel/internal/data"
	"isolevel/internal/history"
)

// Stream is the phenomenon checker: it consumes a history one op at a
// time and maintains, per identifier, just enough state to decide whether
// the phenomenon has been exhibited so far — and by which transaction
// pairs. For every well-formed history, feeding all ops yields exactly the
// identifier set and the pair sets of the declarative matchers in
// spec_test.go (the spec-vs-stream tests in this package enforce both),
// but without their full-history rescans: per-op work is bounded by the
// number of live transactions touching the op's item, never by the
// history length, so fuzz campaigns can check long generated histories at
// bench speed.
//
// The pair attribution is what the per-transaction oracle of mixed
// isolation-level runs consumes: a phenomenon is only a violation when
// charged to a transaction whose own level forbids it, so "P1 happened"
// is not enough — the checker must know which transaction read whose
// dirty write.
//
// State is proportional to (live transactions × their footprints) plus,
// for the committed-pair anomalies (A1, A5B), compact per-transaction
// read/write summaries that survive commit.
type Stream struct {
	seen  map[ID]bool
	pairs map[ID]map[Pair]bool
	seq   int
	term  map[int]history.Kind // terminal kind, once a tx has one

	// Live-transaction index: which not-yet-terminated transactions have
	// written / read each item, and the reverse maps for O(footprint)
	// cleanup at terminals.
	activeWriters map[data.Key]map[int]bool
	activeReaders map[data.Key]map[int]bool
	touchedW      map[int]map[data.Key]bool
	touchedR      map[int]map[data.Key]bool

	// Predicate reads: registered under the read's first predicate name,
	// exactly like the spec's P3/A3 matchers.
	activePredReaders map[string]map[int]bool
	touchedP          map[int]map[string]bool

	// A1: dirty-read pairs (writer -> readers and the reverse). A pair
	// fires when the writer has aborted and the reader has committed, in
	// either order, so pairs outlive the transactions.
	dirtyPairs map[int]map[int]bool
	dirtyRev   map[int]map[int]bool

	// A2: writer -> reader -> items the writer overwrote under the
	// reader's feet; promoted to a2Committed (reader -> item -> writers)
	// when the writer commits; a reread of a promoted item arms the
	// (reader, writer) candidate pairs, reported at the reader's commit.
	a2Pending   map[int]map[int]map[data.Key]bool
	a2Committed map[int]map[data.Key]map[int]bool
	a2Candidate map[int]map[int]bool

	// A3: same shape over predicate names.
	a3Pending   map[int]map[int]map[string]bool
	a3Committed map[int]map[string]map[int]bool
	a3Candidate map[int]map[int]bool

	// P4/P4C: per (reader, item) lost-update state machine
	// read -> intervened (other-tx write, identity kept) -> self write,
	// reported per intervener at the reader's commit.
	p4 map[int]map[data.Key]*luState
	// p4Pending / p4cPendingBy: interveners of the plain / cursor rung,
	// pending the reader's commit.
	p4Pending    map[int]map[int]bool
	p4cPendingBy map[int]map[int]bool

	// A5A: per (writer t2, reader t1): the items x where t2 overwrote
	// t1's read, with the earliest such write's sequence number. When t2
	// commits, every item y != x that t2 wrote after one of those
	// overwrites becomes a watch (keeping t2's identity): t1 reading it
	// afterwards is read skew by (t1, t2).
	a5aPairs map[int]map[int]map[data.Key]int
	a5aWatch map[int]map[data.Key]map[int]bool

	// A5B: per-transaction item read/write sequence lists, kept for
	// committed transactions so each new commit can be checked against
	// the earlier ones.
	reads     map[int]map[data.Key][]int
	writes    map[int]map[data.Key][]int
	committed []int
}

// NewStream returns an empty streaming checker.
func NewStream() *Stream {
	return &Stream{
		seen:              map[ID]bool{},
		pairs:             map[ID]map[Pair]bool{},
		term:              map[int]history.Kind{},
		activeWriters:     map[data.Key]map[int]bool{},
		activeReaders:     map[data.Key]map[int]bool{},
		touchedW:          map[int]map[data.Key]bool{},
		touchedR:          map[int]map[data.Key]bool{},
		activePredReaders: map[string]map[int]bool{},
		touchedP:          map[int]map[string]bool{},
		dirtyPairs:        map[int]map[int]bool{},
		dirtyRev:          map[int]map[int]bool{},
		a2Pending:         map[int]map[int]map[data.Key]bool{},
		a2Committed:       map[int]map[data.Key]map[int]bool{},
		a2Candidate:       map[int]map[int]bool{},
		a3Pending:         map[int]map[int]map[string]bool{},
		a3Committed:       map[int]map[string]map[int]bool{},
		a3Candidate:       map[int]map[int]bool{},
		p4:                map[int]map[data.Key]*luState{},
		p4Pending:         map[int]map[int]bool{},
		p4cPendingBy:      map[int]map[int]bool{},
		a5aPairs:          map[int]map[int]map[data.Key]int{},
		a5aWatch:          map[int]map[data.Key]map[int]bool{},
		reads:             map[int]map[data.Key][]int{},
		writes:            map[int]map[data.Key][]int{},
	}
}

// luState is one (transaction, item) lost-update ladder. by / byCur hold
// the identities of the transactions that wrote the item after this
// transaction's plain / cursor read of it.
type luState struct {
	read, readCur bool // item was read (rc for the cursor rung)
	by, byCur     map[int]bool
}

// Profile returns the identifiers h exhibits.
func Profile(h history.History) map[ID]bool { return feed(h).seen }

// Attribution returns, per exhibited identifier, the participating
// transaction pairs — the shape the per-transaction oracle consumes.
func Attribution(h history.History) map[ID]map[Pair]bool { return feed(h).pairs }

// Exhibits reports whether h contains at least one occurrence of id.
func Exhibits(id ID, h history.History) bool { return feed(h).seen[id] }

// feed runs h through a fresh Stream; its maps are the caller's to keep.
func feed(h history.History) *Stream {
	s := NewStream()
	for _, op := range h {
		s.Feed(op)
	}
	return s
}

// Pairs returns a copy of the participating transaction pairs per
// exhibited identifier.
func (s *Stream) Pairs() map[ID]map[Pair]bool {
	out := make(map[ID]map[Pair]bool, len(s.pairs))
	for id, set := range s.pairs {
		cp := make(map[Pair]bool, len(set))
		for p := range set {
			cp[p] = true
		}
		out[id] = cp
	}
	return out
}

// PairsOf returns the pairs of one identifier, sorted (A, then B), for
// deterministic reports.
func (s *Stream) PairsOf(id ID) []Pair {
	set := s.pairs[id]
	out := make([]Pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Exhibits reports whether id has been exhibited by the ops fed so far.
func (s *Stream) Exhibits(id ID) bool { return s.seen[id] }

// hit records one attributed occurrence.
func (s *Stream) hit(id ID, a, b int) {
	s.seen[id] = true
	set := s.pairs[id]
	if set == nil {
		set = map[Pair]bool{}
		s.pairs[id] = set
	}
	set[Pair{a, b}] = true
}

// Feed consumes the next op of the history. Ops of a transaction that
// already terminated are ignored (only ill-formed histories, which
// Validate rejects, have such ops).
func (s *Stream) Feed(op history.Op) {
	if _, done := s.term[op.Tx]; done {
		return
	}
	s.seq++
	switch {
	case op.Kind.IsTerminal():
		s.terminal(op.Tx, op.Kind)
	case op.Kind == history.PredRead:
		s.predRead(op)
	case op.Kind == history.Read || op.Kind == history.ReadCursor:
		s.itemRead(op)
	case op.Kind.IsWrite():
		s.write(op)
	}
}

func (s *Stream) itemRead(op history.Op) {
	t, item := op.Tx, op.Item
	// P1: the item has an uncommitted write by another transaction.
	for w := range s.activeWriters[item] {
		if w == t {
			continue
		}
		s.hit(P1, w, t)
		putPair(s.dirtyPairs, w, t)
		putPair(s.dirtyRev, t, w)
	}
	// A2: reread of an item a committed transaction overwrote under us.
	for w := range s.a2Committed[t][item] {
		putPair(s.a2Candidate, t, w)
	}
	// A5A: read of the "other half" of a committed two-item update.
	for w := range s.a5aWatch[t][item] {
		s.hit(A5A, t, w)
	}
	putItem(s.activeReaders, item, t)
	putKey(s.touchedR, t, item)
	st := s.lu(t, item)
	st.read = true
	if op.Kind == history.ReadCursor {
		st.readCur = true
	}
	m := s.reads[t]
	if m == nil {
		m = map[data.Key][]int{}
		s.reads[t] = m
	}
	m[item] = append(m[item], s.seq)
}

func (s *Stream) write(op history.Op) {
	t := op.Tx
	if item := op.Item; item != "" {
		// P0: the item has an uncommitted write by another transaction.
		for w := range s.activeWriters[item] {
			if w != t {
				s.hit(P0, w, t)
			}
		}
		// P2 + downstream (A2 pending, A5A overwrite-match): the item was
		// read by a still-active other transaction.
		for r := range s.activeReaders[item] {
			if r == t {
				continue
			}
			s.hit(P2, r, t)
			putKeyIn3(s.a2Pending, t, r, item)
			pairs := s.a5aPairs[t]
			if pairs == nil {
				pairs = map[int]map[data.Key]int{}
				s.a5aPairs[t] = pairs
			}
			matched := pairs[r]
			if matched == nil {
				matched = map[data.Key]int{}
				pairs[r] = matched
			}
			if _, ok := matched[item]; !ok {
				matched[item] = s.seq
			}
			// P4 intervention: the reader's lost-update ladder advances,
			// remembering who intervened.
			if st := s.p4[r][item]; st != nil {
				if st.read {
					if st.by == nil {
						st.by = map[int]bool{}
					}
					st.by[t] = true
				}
				if st.readCur {
					if st.byCur == nil {
						st.byCur = map[int]bool{}
					}
					st.byCur[t] = true
				}
			}
		}
		// Own write after an intervention completes the lost-update shape;
		// it becomes P4/P4C against each intervener if the transaction goes
		// on to commit.
		if st := s.p4[t][item]; st != nil {
			for w := range st.by {
				putPair(s.p4Pending, t, w)
			}
			for w := range st.byCur {
				putPair(s.p4cPendingBy, t, w)
			}
		}
		putItem(s.activeWriters, item, t)
		putKey(s.touchedW, t, item)
		m := s.writes[t]
		if m == nil {
			m = map[data.Key][]int{}
			s.writes[t] = m
		}
		m[item] = append(m[item], s.seq)
	}
	// P3: the write falls inside a predicate a still-active other
	// transaction has read (an item write annotated "in P", or a
	// predicate write naming P).
	for _, name := range op.Preds {
		for r := range s.activePredReaders[name] {
			if r == t {
				continue
			}
			s.hit(P3, r, t)
			putNameIn3(s.a3Pending, t, r, name)
		}
	}
}

func (s *Stream) predRead(op history.Op) {
	t := op.Tx
	// A3: re-evaluation of a predicate a committed transaction wrote into
	// under us. The spec's matcher accepts the predicate in any position
	// of the reread's list, so check them all.
	for _, name := range op.Preds {
		for w := range s.a3Committed[t][name] {
			putPair(s.a3Candidate, t, w)
		}
	}
	// Registration mirrors the spec's P3/A3 matchers: the read is indexed
	// under its first predicate name only.
	if len(op.Preds) > 0 {
		name := op.Preds[0]
		set := s.activePredReaders[name]
		if set == nil {
			set = map[int]bool{}
			s.activePredReaders[name] = set
		}
		set[t] = true
		putName(s.touchedP, t, name)
	}
}

func (s *Stream) terminal(t int, kind history.Kind) {
	s.term[t] = kind
	if kind == history.Commit {
		// Promote A2/A3 overwrites made by t: its victims' rereads now
		// witness a committed change.
		for r, items := range s.a2Pending[t] {
			if _, done := s.term[r]; done {
				continue // the victim terminated first: no reread can follow
			}
			for item := range items {
				putTxIn3(s.a2Committed, r, item, t)
			}
		}
		for r, names := range s.a3Pending[t] {
			if _, done := s.term[r]; done {
				continue
			}
			for name := range names {
				putTxIn3(s.a3Committed, r, name, t)
			}
		}
		// A5A: every item y that t wrote after overwriting some read item
		// x (y != x) becomes a watch, by t, for the overwritten reader.
		for r, matched := range s.a5aPairs[t] {
			if _, done := s.term[r]; done {
				continue
			}
			for y, seqs := range s.writes[t] {
				last := seqs[len(seqs)-1]
				for x, first := range matched {
					if x != y && first < last {
						putTxIn3(s.a5aWatch, r, y, t)
						break
					}
				}
			}
		}
		// Anomalies armed earlier that required this commit.
		for w := range s.a2Candidate[t] {
			s.hit(A2, t, w)
		}
		for w := range s.a3Candidate[t] {
			s.hit(A3, t, w)
		}
		for w := range s.p4Pending[t] {
			s.hit(P4, t, w)
		}
		for w := range s.p4cPendingBy[t] {
			s.hit(P4C, t, w)
		}
		// A1: t committed after reading a write that was rolled back.
		for w := range s.dirtyRev[t] {
			if s.term[w] == history.Abort {
				s.hit(A1, w, t)
			}
		}
		s.checkA5B(t)
		s.committed = append(s.committed, t)
	} else {
		// A1: t's write, read by an already-committed transaction, is now
		// rolled back.
		for r := range s.dirtyPairs[t] {
			if s.term[r] == history.Commit {
				s.hit(A1, t, r)
			}
		}
		// Aborted transactions can no longer contribute to the committed-
		// pair anomalies.
		delete(s.reads, t)
		delete(s.writes, t)
	}
	delete(s.a2Pending, t)
	delete(s.a3Pending, t)
	delete(s.a5aPairs, t)
	delete(s.a5aWatch, t)
	delete(s.a2Committed, t)
	delete(s.a3Committed, t)
	delete(s.a2Candidate, t)
	delete(s.a3Candidate, t)
	delete(s.p4, t)
	delete(s.p4Pending, t)
	delete(s.p4cPendingBy, t)
	for item := range s.touchedW[t] {
		delete(s.activeWriters[item], t)
	}
	for item := range s.touchedR[t] {
		delete(s.activeReaders[item], t)
	}
	for name := range s.touchedP[t] {
		delete(s.activePredReaders[name], t)
	}
	delete(s.touchedW, t)
	delete(s.touchedR, t)
	delete(s.touchedP, t)
}

// checkA5B tests the freshly committed transaction b against every earlier
// committed transaction a for the write-skew shape: a read x and wrote y,
// b read y and wrote x (x != y), each read preceding the other side's
// first subsequent write of that item. The pattern is symmetric in its
// two roles, so one orientation per pair suffices; pairs are normalized
// (min, max) like the spec matcher's t1 < t2 emission rule.
func (s *Stream) checkA5B(b int) {
	for _, a := range s.committed {
		if s.a5bPair(a, b) {
			if a < b {
				s.hit(A5B, a, b)
			} else {
				s.hit(A5B, b, a)
			}
		}
	}
}

func (s *Stream) a5bPair(a, b int) bool {
	for x, rax := range s.reads[a] {
		wbx := s.writes[b][x]
		if len(wbx) == 0 {
			continue
		}
		for y, rby := range s.reads[b] {
			if y == x {
				continue
			}
			way := s.writes[a][y]
			if len(way) == 0 {
				continue
			}
			// ∃ reads i of x by a, j of y by b such that a's first write of
			// y after i comes after j, and b's first write of x after j
			// comes after i — the spec matcher's "reads precede the
			// opposing writes" condition.
			for _, i := range rax {
				k1, ok := firstAfter(way, i)
				if !ok {
					continue
				}
				for _, j := range rby {
					if j >= k1 {
						continue
					}
					if k2, ok := firstAfter(wbx, j); ok && k2 > i {
						return true
					}
				}
			}
		}
	}
	return false
}

// firstAfter returns the first element of the ascending slice strictly
// greater than v.
func firstAfter(seqs []int, v int) (int, bool) {
	for _, s := range seqs {
		if s > v {
			return s, true
		}
	}
	return 0, false
}

func (s *Stream) lu(t int, item data.Key) *luState {
	m := s.p4[t]
	if m == nil {
		m = map[data.Key]*luState{}
		s.p4[t] = m
	}
	st := m[item]
	if st == nil {
		st = &luState{}
		m[item] = st
	}
	return st
}

// putTxIn3 records t under m[k1][k2], creating the nested maps — the
// shared shape of the a2Committed / a3Committed / a5aWatch promotions.
func putTxIn3[K comparable](m map[int]map[K]map[int]bool, k1 int, k2 K, t int) {
	byKey := m[k1]
	if byKey == nil {
		byKey = map[K]map[int]bool{}
		m[k1] = byKey
	}
	set := byKey[k2]
	if set == nil {
		set = map[int]bool{}
		byKey[k2] = set
	}
	set[t] = true
}

func putPair(m map[int]map[int]bool, k, v int) {
	set := m[k]
	if set == nil {
		set = map[int]bool{}
		m[k] = set
	}
	set[v] = true
}

func putItem(m map[data.Key]map[int]bool, k data.Key, v int) {
	set := m[k]
	if set == nil {
		set = map[int]bool{}
		m[k] = set
	}
	set[v] = true
}

func putKey(m map[int]map[data.Key]bool, k int, v data.Key) {
	set := m[k]
	if set == nil {
		set = map[data.Key]bool{}
		m[k] = set
	}
	set[v] = true
}

func putName(m map[int]map[string]bool, k int, v string) {
	set := m[k]
	if set == nil {
		set = map[string]bool{}
		m[k] = set
	}
	set[v] = true
}

func putKeyIn3(m map[int]map[int]map[data.Key]bool, k1, k2 int, v data.Key) {
	m2 := m[k1]
	if m2 == nil {
		m2 = map[int]map[data.Key]bool{}
		m[k1] = m2
	}
	putKey(m2, k2, v)
}

func putNameIn3(m map[int]map[int]map[string]bool, k1, k2 int, v string) {
	m2 := m[k1]
	if m2 == nil {
		m2 = map[int]map[string]bool{}
		m[k1] = m2
	}
	putName(m2, k2, v)
}
