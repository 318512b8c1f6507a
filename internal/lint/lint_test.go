package lint

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test run: the stdlib packages the fixtures
// import are type-checked from source once and cached.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}

// runFixture type-checks the in-memory fixture files under importPath, runs
// the given analyzers, and compares the findings against `// want:a,b`
// markers in the sources: every marked (file, line, analyzer) triple must be
// reported, and nothing else may be.
func runFixture(t *testing.T, importPath string, files map[string]string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := testLoader(t).LoadSource(importPath, files)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	want := make(map[key]bool)
	for name, src := range files {
		for i, text := range strings.Split(src, "\n") {
			idx := strings.Index(text, "// want:")
			if idx < 0 {
				continue
			}
			for _, a := range strings.Split(text[idx+len("// want:"):], ",") {
				want[key{name, i + 1, strings.TrimSpace(a)}] = true
			}
		}
	}
	got := make(map[key]string)
	for _, f := range Run([]*Package{pkg}, analyzers) {
		got[key{f.Pos.Filename, f.Pos.Line, f.Analyzer}] = f.Message
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("missing finding %s:%d: %s", k.file, k.line, k.analyzer)
		}
	}
	for k, msg := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s:%d: %s: %s", k.file, k.line, k.analyzer, msg)
		}
	}
}

const errcheckFixture = `package fixture

import (
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return nil }

func drops() {
	mayFail()       // want:errcheck
	defer mayFail() // want:errcheck
	go mayFail()    // want:errcheck
	var sb strings.Builder
	fmt.Fprintf(&sb, "x") // want:errcheck
}

func checks() error {
	if err := mayFail(); err != nil {
		return err
	}
	_ = mayFail()
	var sb strings.Builder
	sb.WriteString("builder writes cannot fail")
	fmt.Println("stdout diagnostics are exempt")
	fmt.Fprintln(os.Stderr, "stderr diagnostics are exempt")
	return nil
}
`

func TestErrCheck(t *testing.T) {
	runFixture(t, "repro/internal/fixture",
		map[string]string{"fixture.go": errcheckFixture}, ErrCheck)
}

const determinismFixture = `package fixture

import (
	"fmt"
	"math/rand"
	"time"
)

func stamp() int64 {
	return time.Now().UnixNano() // want:determinism
}

func global() int {
	return rand.Intn(6) // want:determinism
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want:determinism
	}
}

func ordered(s []int) {
	for _, v := range s {
		fmt.Println(v)
	}
}
`

func TestDeterminism(t *testing.T) {
	runFixture(t, "repro/internal/fixture",
		map[string]string{"fixture.go": determinismFixture}, Determinism)
}

// Determinism is scoped to module-internal packages: the same source
// posing as a cmd package is clean.
func TestDeterminismScope(t *testing.T) {
	src := strings.ReplaceAll(determinismFixture, "// want:determinism", "")
	pkg, err := testLoader(t).LoadSource("repro/cmd/fixture",
		map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run([]*Package{pkg}, []*Analyzer{Determinism}); len(fs) != 0 {
		t.Fatalf("cmd package flagged by determinism: %v", fs)
	}
}

const tracecheckFixture = `package fixture

import "repro/internal/trace"

func handRolled() trace.Event {
	return trace.Event{Kind: trace.Load} // want:tracecheck
}

func badKind() trace.Kind {
	return trace.Kind(99) // want:tracecheck
}

func okKind() trace.Kind {
	return trace.Load
}

func blankDiscard(w *trace.Writer, e trace.Event) {
	_ = w.Write(e) // want:tracecheck
	_ = w.Flush()  // want:tracecheck
}

func checked(w *trace.Writer, e trace.Event) error {
	if err := w.Write(e); err != nil {
		return err
	}
	return w.Flush()
}
`

func TestTraceCheck(t *testing.T) {
	runFixture(t, "repro/internal/fixture",
		map[string]string{"fixture.go": tracecheckFixture}, TraceCheck)
}

const exhaustiveFixture = `package fixture

type color int

const (
	red color = iota
	green
	blue
)

func missing(c color) int {
	switch c { // want:exhaustive-kind
	case red:
		return 1
	case green:
		return 2
	}
	return 0
}

func silentDefault(c color) int {
	switch c {
	case red:
		return 1
	default: // want:exhaustive-kind
	}
	return 0
}

func covered(c color) int {
	switch c {
	case red, green, blue:
		return 1
	}
	return 0
}

func rejectingDefault(c color) int {
	switch c {
	case red:
		return 1
	default:
		panic("unexpected color")
	}
}

func nonConstantCase(c, x color) int {
	switch c {
	case x:
		return 1
	}
	return 0
}
`

func TestExhaustiveKind(t *testing.T) {
	runFixture(t, "repro/internal/fixture",
		map[string]string{"fixture.go": exhaustiveFixture}, ExhaustiveKind)
}

const obscheckFixture = `package fixture

import (
	"expvar"
	"net/http"
)

var hits = expvar.NewInt("hits") // want:obscheck

var ratio = expvar.NewFloat("ratio") // want:obscheck

func publish(v expvar.Var) {
	expvar.Publish("custom", v) // want:obscheck
}

func reading(mux *http.ServeMux) {
	mux.Handle("/debug/vars", expvar.Handler())
	_ = expvar.Get("hits")
	expvar.Do(func(expvar.KeyValue) {})
}
`

func TestObsCheck(t *testing.T) {
	runFixture(t, "repro/internal/fixture",
		map[string]string{"fixture.go": obscheckFixture}, ObsCheck)
}

// ObsCheck exempts no package: internal/obs registers nothing in
// expvar either.
func TestObsCheckScope(t *testing.T) {
	runFixture(t, "repro/internal/obs",
		map[string]string{"fixture.go": obscheckFixture}, ObsCheck)
}

// TestIgnoreDirectives checks the //lint:ignore mechanism end to end:
// suppression on the directive line and the line below, malformed and
// unknown-analyzer directives becoming unsuppressable findings.
func TestIgnoreDirectives(t *testing.T) {
	const src = `package fixture

func mayFail() error { return nil }

func suppressedAbove() {
	//lint:ignore errcheck fixture exercises the suppression path
	mayFail()
}

func suppressedTrailing() {
	mayFail() //lint:ignore errcheck trailing directive
}

func unsuppressed() {
	mayFail()
}

func malformed() {
	//lint:ignore errcheck
	mayFail()
}

func unknownAnalyzer() {
	//lint:ignore nosuch the analyzer name is not registered
	mayFail()
}

func multi() {
	//lint:ignore errcheck,tracecheck list directives cover each named analyzer
	mayFail()
}
`
	pkg, err := testLoader(t).LoadSource("repro/internal/fixture",
		map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range Run([]*Package{pkg}, Analyzers()) {
		got = append(got, fmt.Sprintf("%d:%s", f.Pos.Line, f.Analyzer))
	}
	want := []string{
		"15:errcheck", // unsuppressed
		"19:lint",     // malformed: missing reason
		"20:errcheck", // malformed directive suppresses nothing
		"24:lint",     // unknown analyzer name
		"25:errcheck", // unknown-analyzer directive suppresses nothing
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("findings = %v, want %v", got, want)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "errcheck", Message: "boom"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "a/b.go", 3, 7
	if got := f.String(); got != "a/b.go:3:7: errcheck: boom" {
		t.Fatalf("String() = %q", got)
	}
}
