package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// client is one closed-loop session: it sends its next transaction only
// after the previous one committed or was given up.
type client struct {
	id   int
	conn conn
	gen  *generator
	base time.Time // repetition clock origin, shared with the engine spans

	// commits is atomic so a repetition that hangs past its deadline can
	// still be accounted from outside; everything else is read only after
	// the client goroutine has returned.
	commits atomic.Int64

	retries    int
	fcwRetries int
	latencies  []int64  // ns, first BEGIN to successful COMMIT, retries included
	violations []string // oracle findings and protocol failures; any entry fails the run

	txn int // current attempt's engine transaction id

	// Traced pass only.
	spans    *[]span // nil when tracing is off
	txnNs    int64   // summed transaction time
	wastedNs int64   // time spent in attempts that ended in a retry
}

// reset starts a new phase on the same connection and generator stream.
func (c *client) reset(n int) {
	c.commits.Store(0)
	c.retries, c.fcwRetries = 0, 0
	c.txnNs, c.wastedNs = 0, 0
	c.latencies = make([]int64, 0, n)
	if c.spans != nil {
		*c.spans = (*c.spans)[:0]
	}
}

// run plays n transactions. After the deadline, or after a protocol
// failure that leaves the connection in an unknown state, the rest are
// not attempted and count as failed.
func (c *client) run(n int, deadline time.Time) {
	for i := 0; i < n && len(c.violations) == 0; i++ {
		start := time.Now()
		if start.After(deadline) {
			return
		}
		committed := c.runTxn(c.gen.next(), start)
		elapsed := int64(time.Since(start))
		if c.spans != nil {
			c.txnNs += elapsed
		}
		if committed {
			c.latencies = append(c.latencies, elapsed)
			c.commits.Add(1)
		}
	}
}

// runTxn runs one transaction under the retry policy (see maxRetries in
// spec.go) and reports whether it committed.
func (c *client) runTxn(p txnParams, start time.Time) bool {
	attemptStart := start
	for retry := 0; retry <= maxRetries; retry++ {
		if retry >= sleepAfter {
			time.Sleep(retrySleep)
		} else if retry >= yieldAfter {
			runtime.Gosched()
		}
		err := c.attempt(p)
		if err == nil {
			if c.spans != nil {
				*c.spans = append(*c.spans, span{layer: layerClient, name: "txn", txn: c.txn, client: c.id,
					start: int64(start.Sub(c.base)), end: int64(time.Since(c.base)), attempts: retry + 1})
			}
			return true
		}
		var re *retryError
		if !errors.As(err, &re) {
			c.violations = append(c.violations, fmt.Sprintf("client %d: %v", c.id, err))
			return false
		}
		c.retries++
		if re.kind == retryWriteConflict {
			c.fcwRetries++
		}
		if c.spans != nil {
			now := time.Now()
			c.wastedNs += int64(now.Sub(attemptStart))
			attemptStart = now
		}
	}
	return false
}

func (c *client) attempt(p txnParams) error {
	id, err := c.conn.Begin()
	if err != nil {
		return err
	}
	c.txn = id
	if c.gen.traffic == trafficScanmove {
		err = c.scanmove(p)
	} else {
		err = c.transfer(p)
	}
	if err != nil {
		return err
	}
	return c.conn.Commit()
}

// transfer: GET a, GET b, SET a va-d, SET b vb+d.
func (c *client) transfer(p txnParams) error {
	a, b := acctKeys[p.a], acctKeys[p.b]
	va, err := c.conn.Get(a)
	if err != nil {
		return err
	}
	vb, err := c.conn.Get(b)
	if err != nil {
		return err
	}
	if err := c.conn.Set(a, va-p.d); err != nil {
		return err
	}
	return c.conn.Set(b, vb+p.d)
}

// scanmove: SCAN the group, DEL one returned row, SET a free slot of the
// same group to its value. Every scan, committed or not, must see the
// group whole: SERIALIZABLE and SNAPSHOT ISOLATION both promise it.
func (c *client) scanmove(p txnParams) error {
	lo, hi := groupBounds(p.g)
	rows, err := c.conn.Scan(lo, hi)
	if err != nil {
		return err
	}
	var taken [slots]bool
	var sum int64
	for _, r := range rows {
		s, ok := slotOf(r.key)
		if !ok || r.key < lo || r.key >= hi {
			return fmt.Errorf("scan of group %d returned foreign key %q", p.g, r.key)
		}
		taken[s] = true
		sum += r.val
	}
	if len(rows) != rowsPerGrp || sum != groupSum {
		return fmt.Errorf("scan of group %d saw %d rows summing to %d, want %d rows summing to %d",
			p.g, len(rows), sum, rowsPerGrp, groupSum)
	}
	victim := rows[p.pickRow%len(rows)]
	free := p.pickSlot % (slots - len(rows))
	dst := 0
	for ; taken[dst] || free > 0; dst++ {
		if !taken[dst] {
			free--
		}
	}
	if err := c.conn.Del(victim.key); err != nil {
		return err
	}
	return c.conn.Set(slotKey(p.g, dst), victim.val)
}
