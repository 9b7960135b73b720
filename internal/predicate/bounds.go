package predicate

import "isolevel/internal/data"

// KeyBounds conservatively extracts the key range a predicate can cover:
// every (possibly phantom) row satisfying p has lo <= key < hi when bounded
// is true; bounded == false means the predicate can match anywhere in the
// key space. Key-range locking uses the bounds to restrict the anchors of
// a range scan — any over-coverage is harmless, because conflicts are
// refined by evaluating the predicate on the writer's row images, so the
// extraction only ever trades precision for fewer locks, never soundness.
// The stores' Select walks the same bounds on its ordered key index and
// evaluates p on every row inside, under the same contract: over-coverage
// costs rows visited, never rows returned.
//
// Bounds come from the key-addressing predicate forms:
//
//   - KeyEq k:        [k, successor(k))      — one key
//   - KeyRange:       [Lo, Hi)               — exactly the scanned interval
//   - KeyPrefix "t:": ["t:", prefixEnd("t:")) — the prefix block
//   - And: the intersection of its operands' bounds
//   - Or: the hull of its operands' bounds (unbounded if either side is)
//
// Field comparisons, negation and True say nothing about keys.
func KeyBounds(p P) (lo, hi data.Key, bounded bool) {
	switch x := p.(type) {
	case KeyEq:
		return x.Key, x.Key + "\x00", true
	case KeyRange:
		if x.Empty() {
			return x.Lo, x.Lo, true // empty interval, kept well-formed
		}
		return x.Lo, x.Hi, true
	case KeyPrefix:
		if end, ok := prefixEnd(x.Prefix); ok {
			return data.Key(x.Prefix), end, true
		}
	case And:
		llo, lhi, lok := KeyBounds(x.L)
		rlo, rhi, rok := KeyBounds(x.R)
		switch {
		case lok && rok:
			if rlo > llo {
				llo = rlo
			}
			if rhi < lhi {
				lhi = rhi
			}
			if lhi < llo {
				lhi = llo // empty intersection, kept well-formed
			}
			return llo, lhi, true
		case lok:
			return llo, lhi, true
		case rok:
			return rlo, rhi, true
		}
	case Or:
		llo, lhi, lok := KeyBounds(x.L)
		rlo, rhi, rok := KeyBounds(x.R)
		if lok && rok {
			if rlo < llo {
				llo = rlo
			}
			if rhi > lhi {
				lhi = rhi
			}
			return llo, lhi, true
		}
	}
	return "", "", false
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix: the prefix with its last byte incremented (dropping trailing
// 0xff bytes first). An all-0xff prefix has no finite end.
func prefixEnd(prefix string) (data.Key, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return data.Key(b[:i+1]), true
		}
	}
	return "", false
}
