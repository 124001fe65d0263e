package lint_test

import (
	"testing"

	"mcddvfs/internal/lint/linttest"
)

// The fixture module seeds at least one violation per analyzer plus
// the compliant idioms each analyzer must accept; linttest fails on
// any unexpected diagnostic, any unmatched expectation, and on an
// analyzer that catches nothing. The unreachable analyzer needs a whole
// program, so it has a module of its own with a main package (and
// fixture.example, which has none, shows it staying silent).
const (
	fixtureDir     = "testdata/src/fixture.example"
	unreachableDir = "testdata/src/unreachable.example"
)

func TestDetRange(t *testing.T)     { linttest.Run(t, fixtureDir, "detrange") }
func TestDetSource(t *testing.T)    { linttest.Run(t, fixtureDir, "detsource") }
func TestCtxFlow(t *testing.T)      { linttest.Run(t, fixtureDir, "ctxflow") }
func TestErrTaxonomy(t *testing.T)  { linttest.Run(t, fixtureDir, "errtaxonomy") }
func TestSchemeSwitch(t *testing.T) { linttest.Run(t, fixtureDir, "schemeswitch") }
func TestEngineOwned(t *testing.T)  { linttest.Run(t, fixtureDir, "engineowned") }
func TestDetTaint(t *testing.T)     { linttest.Run(t, fixtureDir, "dettaint") }
func TestCacheKey(t *testing.T)     { linttest.Run(t, fixtureDir, "cachekey") }
func TestUnreachable(t *testing.T)  { linttest.Run(t, unreachableDir, "unreachable") }
