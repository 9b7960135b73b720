package deps_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"isolevel/internal/deps"
	"isolevel/internal/exerciser"
	"isolevel/internal/history"
)

// BuildGraph against the pairwise spec, on nodes, edges and cycle
// verdicts, over the fuzzer's generated histories and the exerciser's
// corpus.

func TestStreamingMatchesBatchOnGenerated(t *testing.T) {
	for pi, p := range []exerciser.Params{
		exerciser.DefaultParams(),
		{Txs: 6, Items: 2, OpsPerTx: 6, Mix: exerciser.Mix{Read: 3, Write: 3, PredRead: 2, CurRead: 2, CurWrite: 2}, AbortFrac: 0.3},
		{Txs: 3, Items: 4, OpsPerTx: 8, Mix: exerciser.Mix{Read: 5, Write: 5}, AbortFrac: 0},
	} {
		for seed := int64(1); seed <= 120; seed++ {
			assertSpec(t, exerciser.Generate(seed, p).History(), fmt.Sprintf("params %d seed %d", pi, seed))
		}
	}
}

func TestStreamMatchesBatchOnCorpus(t *testing.T) {
	files, err := filepath.Glob("../exerciser/testdata/corpus/*.hist")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line != "" && line[0] != '#' {
				assertSpec(t, history.MustParse(line), filepath.Base(path))
			}
		}
	}
}

func assertSpec(t *testing.T, h history.History, where string) {
	t.Helper()
	spec, stream := deps.SpecGraph(h), deps.BuildGraph(h)
	if !reflect.DeepEqual(spec.Nodes, stream.Nodes) || spec.String() != stream.String() || (spec.Cycle() == nil) != (stream.Cycle() == nil) {
		t.Fatalf("%s: graphs differ\nspec:\n%s\nstream:\n%s\n%s", where, spec, stream, h)
	}
}
