package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTraceFile generates a workload and encodes it to a trace file,
// returning the path and the in-memory buffer.
func writeTraceFile(t *testing.T, refs int, seed int64) (string, *trace.Buffer) {
	t.Helper()
	b, err := workload.Generate("boxsim", refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, b
}

// TestMemoizedSnapshotByteIdentical is the store's core guarantee:
// analyzing a trace through the store — miss or hit — returns bytes
// identical to the freshly computed batch core.Analyze level-0 snapshot.
func TestMemoizedSnapshotByteIdentical(t *testing.T) {
	path, buf := writeTraceFile(t, 20000, 1)
	opts := core.Options{SkipPotential: true}
	fresh, err := online.SnapshotFromAnalysis(core.Analyze(buf, opts)).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	s := open(t, t.TempDir())
	miss, err := s.AnalyzeTraceFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit {
		t.Error("first analysis reported a memo hit")
	}
	if !bytes.Equal(miss.Snapshot, fresh) {
		t.Error("computed-and-stored snapshot differs from fresh core.Analyze")
	}

	hit, err := s.AnalyzeTraceFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit {
		t.Error("second analysis of the same trace hash missed the memo")
	}
	if hit.TraceDigest != miss.TraceDigest {
		t.Errorf("trace digest changed: %s vs %s", hit.TraceDigest, miss.TraceDigest)
	}
	if !bytes.Equal(hit.Snapshot, fresh) {
		t.Error("memoized snapshot differs from fresh core.Analyze")
	}

	// Ingesting the identical trace twice stored its blob once.
	if _, ok := s.Get("trace/" + miss.TraceDigest.Hex()); !ok {
		t.Error("trace artifact not recorded")
	}

	// The frozen grammar round-trips through the binary codec and
	// represents exactly the abstracted reference sequence the snapshot
	// reports.
	ga, ok := s.Get(miss.GrammarName)
	if !ok {
		t.Fatal("grammar artifact not recorded")
	}
	if ga.Kind != KindGrammar {
		t.Errorf("grammar artifact kind = %q", ga.Kind)
	}
	gb, err := s.ReadBlob(ga.Digest)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sequitur.ReadBinary(bytes.NewReader(gb))
	if err != nil {
		t.Fatalf("stored grammar unreadable: %v", err)
	}
	var snap online.Snapshot
	if err := json.Unmarshal(miss.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	if g.InputLen() != snap.Abstraction.Names {
		t.Errorf("grammar input length %d != snapshot names %d", g.InputLen(), snap.Abstraction.Names)
	}
}

func TestMemoKeyedByParams(t *testing.T) {
	path, _ := writeTraceFile(t, 8000, 1)
	s := open(t, t.TempDir())
	a, err := s.AnalyzeTraceFile(path, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AnalyzeTraceFile(path, core.Options{CoverageTarget: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Hit {
		t.Error("different parameters hit the other configuration's memo")
	}
	if a.SnapshotName == b.SnapshotName {
		t.Error("distinct parameters share a snapshot artifact name")
	}
}

func TestFingerprintNormalizes(t *testing.T) {
	explicit := core.Options{
		MinStreamLen: 2, MaxStreamLen: 100, CoverageTarget: 0.90,
		BlockSize: 64,
	}
	if Fingerprint(core.Options{}) != Fingerprint(explicit) {
		t.Errorf("zero options fingerprint %q != explicit defaults %q",
			Fingerprint(core.Options{}), Fingerprint(explicit))
	}
	// The default key is pinned: memo keys and artifact names of
	// existing stores must not change.
	if got, want := Fingerprint(core.Options{}), "n0-l2.100-c0.9-f0-k2-b64"; got != want {
		t.Errorf("default fingerprint %q, want %q", got, want)
	}
	// Worker count and Figure-9 settings must not perturb the key.
	if Fingerprint(core.Options{Workers: 8, SkipPotential: true}) != Fingerprint(core.Options{}) {
		t.Error("snapshot-irrelevant options changed the fingerprint")
	}
}
