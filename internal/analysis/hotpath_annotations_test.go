package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The allocation guards (TestFillLaplaceZeroAlloc, TestIndexQueryZeroAlloc,
// TestServeDistanceZeroAlloc, TestServeDistancesZeroAlloc) and the
// //dpvet:hotpath static guard must name the same set of functions: a
// function held to 0 allocs/op but not annotated can regress between
// guard runs, and an annotation with no guard behind it overstates the
// guarantee. This test reads both sides.

// guardedFunctions maps each annotated source file to the functions the
// allocation guards hold allocation-free. Adding a hot function to a
// guard means adding it here AND annotating it; dropping one means the
// reverse.
var guardedFunctions = map[string][]string{
	"internal/dp/noise.go": {
		// TestFillLaplaceZeroAlloc: crypto-serial and seeded block fills
		"laplaceFromRand", "uniform", "laplace", "FillLaplace", "fillSerial",
	},
	"internal/graph/index/ch.go": {
		// TestIndexQueryZeroAlloc: CH point queries
		"Distance",
	},
	"internal/graph/index/hl.go": {
		// TestIndexQueryZeroAlloc: hub-label point queries + sweep delegation
		"Distance", "DistancesFrom",
	},
	"internal/graph/index/phast.go": {
		// TestIndexQueryZeroAlloc: PHAST sweeps
		"DistancesFrom",
	},
	"internal/graph/index/search.go": {
		// TestIndexQueryZeroAlloc: the searchState kernel under CH and PHAST
		"begin", "labeled", "distance", "touch", "update",
		"empty", "minKey", "pop", "siftUp", "siftDown",
	},
	"internal/serve/fastjson.go": {
		// TestServeDistanceZeroAlloc / TestServeDistancesZeroAlloc
		"appendJSONFloat", "appendPairAnswer", "scanQueryPair",
		"isJSONSpace", "skipJSONSpace", "parseJSONInt", "parseATOI",
		"parsePointBodyFast", "parsePairsFast", "parseTuplePairsFast",
		"parseObjectPairsFast", "isTextSpace", "parseTextPairsFast",
		"readBodyLimit",
	},
}

// guardTests are the allocation guards the mapping above relies on, by
// the test file that holds them; if one is renamed or moved the mapping
// needs re-auditing.
var guardTests = map[string][]string{
	"guard_alloc_test.go":                      {"TestFillLaplaceZeroAlloc"},
	"internal/graph/index/guard_alloc_test.go": {"TestIndexQueryZeroAlloc"},
	"internal/serve/alloc_test.go":             {"TestServeDistanceZeroAlloc", "TestServeDistancesZeroAlloc"},
}

var annotatedFuncRE = regexp.MustCompile(`(?m)^//dpvet:hotpath\nfunc (?:\([^)]*\) )?(\w+)\(`)

func TestHotpathAnnotationsMatchPerfGuards(t *testing.T) {
	root := filepath.Join("..", "..")

	for file, tests := range guardTests {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Errorf("reading allocation guard %s: %v", file, err)
			continue
		}
		for _, name := range tests {
			if !strings.Contains(string(src), "\nfunc "+name+"(t *testing.T) {") {
				t.Errorf("%s no longer defines %s; re-audit the hotpath annotation mapping", file, name)
			}
		}
	}

	for file, want := range guardedFunctions {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Errorf("reading %s: %v", file, err)
			continue
		}
		annotated := make(map[string]bool)
		for _, m := range annotatedFuncRE.FindAllStringSubmatch(string(src), -1) {
			annotated[m[1]] = true
		}
		for _, fn := range want {
			if !annotated[fn] {
				t.Errorf("%s: %s is covered by a 0-alloc perf guard but lacks a //dpvet:hotpath annotation", file, fn)
			}
		}
		if len(annotated) != len(want) {
			for fn := range annotated {
				found := false
				for _, w := range want {
					if w == fn {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %s is annotated //dpvet:hotpath but not named by any perf guard mapping; add it to guardedFunctions with its guard", file, fn)
				}
			}
		}
	}
}
