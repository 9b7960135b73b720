package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"isolevel/internal/data"
)

// txnParams is one generated transaction. Parameters are drawn once; a
// retry reruns the same parameters with fresh reads.
type txnParams struct {
	a, b int   // transfer: source and destination account, a != b
	d    int64 // transfer: amount
	g    int   // scanmove: group
	// scanmove: which returned row moves and which free slot receives it,
	// reduced modulo what the scan actually returns.
	pickRow, pickSlot int
}

// generator is one client's seeded transaction stream. The program under
// test sees only the statements it yields, never the seed.
type generator struct {
	traffic string
	rng     *rand.Rand
}

func newGenerator(traffic string, seed int64, client int) *generator {
	return &generator{traffic: traffic, rng: rand.New(rand.NewSource(seed + 7919*int64(client)))}
}

func (g *generator) account() int {
	if g.traffic == trafficHot && g.rng.Float64() < hotProb {
		return g.rng.Intn(hotAccounts)
	}
	return g.rng.Intn(accounts)
}

func (g *generator) next() txnParams {
	if g.traffic == trafficScanmove {
		return txnParams{g: g.rng.Intn(groups), pickRow: g.rng.Intn(slots), pickSlot: g.rng.Intn(slots)}
	}
	p := txnParams{a: g.account(), d: 1 + g.rng.Int63n(maxTransfer)}
	for p.b = g.account(); p.b == p.a; p.b = g.account() {
	}
	return p
}

// acctKeys holds every account key, formatted once so the client's hot
// loop does not pay fmt per statement.
var acctKeys = func() []string {
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%06d", i)
	}
	return keys
}()

func slotKey(group, slot int) string { return fmt.Sprintf("grp:%04d:%03d", group, slot) }

// groupBounds is the half-open key range holding exactly group g's slots.
func groupBounds(g int) (lo, hi string) { return slotKey(g, 0), slotKey(g+1, 0) }

// slotOf recovers the slot number from a grp:GGGG:SSS key.
func slotOf(key string) (int, bool) {
	if len(key) != len("grp:0000:000") {
		return 0, false
	}
	s, err := strconv.Atoi(key[len(key)-3:])
	return s, err == nil && s >= 0 && s < slots
}

// initialRows is the table a traffic shape starts from.
func initialRows(traffic string) []data.Tuple {
	if traffic == trafficScanmove {
		rows := make([]data.Tuple, 0, scanRows)
		for g := 0; g < groups; g++ {
			for s := 0; s < slots; s += 2 {
				rows = append(rows, data.Tuple{Key: data.Key(slotKey(g, s)), Row: data.Scalar(slotValue)})
			}
		}
		return rows
	}
	rows := make([]data.Tuple, accounts)
	for i := range rows {
		rows[i] = data.Tuple{Key: data.Key(acctKeys[i]), Row: data.Scalar(startBalance)}
	}
	return rows
}
