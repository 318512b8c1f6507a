package store

// Memoized analysis: the same trace content under the same analysis
// parameters is analyzed once, ever. The trace is ingested as a blob
// (dedup makes repeat ingests free), and the resulting canonical
// snapshot JSON plus the frozen level-0 WPS grammar are stored as
// artifacts keyed by (trace digest, parameter fingerprint); a later
// request for the same pair is a manifest lookup and a blob read.
// Because the stored snapshot is the canonical indented encoding of
// online.SnapshotFromAnalysis, a memo hit returns bytes identical to a
// fresh core.Analyze over the same records.

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/trace"
)

// Fingerprint renders the analysis parameters that affect a snapshot as
// a short stable string: the memo key's second half. Fields with no
// bearing on level-0 snapshot content (worker count, Figure-9 cache
// geometry, reduction depth past level 0) are deliberately excluded so
// they cannot cause spurious memo misses.
func Fingerprint(opts core.Options) string {
	o := opts.Normalized()
	return fmt.Sprintf("n%d-l%d.%d-c%g-f%d-k2-b%d",
		o.HeapNaming, o.MinStreamLen, o.MaxStreamLen, o.CoverageTarget,
		o.FixedHeatMultiple, o.BlockSize)
}

// Result is one memoized analysis outcome.
type Result struct {
	// TraceDigest is the content digest of the analyzed trace.
	TraceDigest Digest
	// Snapshot is the canonical indented online.Snapshot JSON.
	Snapshot []byte
	// SnapshotName and GrammarName are the manifest entries holding the
	// snapshot JSON and the frozen binary WPS grammar.
	SnapshotName, GrammarName string
	// Hit reports whether the snapshot came from the store (true) or was
	// computed (and stored) by this call.
	Hit bool
}

// traceName returns the canonical manifest name for a trace blob.
func traceName(d Digest) string { return "trace/" + d.Hex() }

func snapshotName(d Digest, fp string) string {
	return fmt.Sprintf("snapshot/%s/%s", d.Hex(), fp)
}

func grammarName(d Digest, fp string) string {
	return fmt.Sprintf("grammar/%s/%s", d.Hex(), fp)
}

// PutTraceFile ingests the trace file at path as a content-addressed
// blob and records it under the canonical "trace/<hex>" name. Ingesting
// the same content twice stores one blob and returns the same digest.
func (s *Store) PutTraceFile(path string) (Digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	d, n, err := s.PutBlob(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if err := s.Put(traceName(d), Artifact{Kind: KindTrace, Digest: d, Size: n}); err != nil {
		return "", err
	}
	return d, nil
}

// AnalyzeTraceFile analyzes the trace file at path with memoization:
// the file is ingested (deduplicated) and AnalyzeStored runs against the
// stored content, so the bytes hashed are exactly the bytes analyzed.
func (s *Store) AnalyzeTraceFile(path string, opts core.Options) (*Result, error) {
	d, err := s.PutTraceFile(path)
	if err != nil {
		return nil, err
	}
	return s.AnalyzeStored(d, opts)
}

// AnalyzeStored returns the snapshot for the stored trace blob under the
// given options, reusing a previously stored snapshot when the (trace
// digest, parameter fingerprint) pair is already in the manifest.
// On a miss it runs core.AnalyzeStream over the blob, stores the
// canonical snapshot JSON and the frozen level-0 WPS grammar, and
// returns the freshly computed bytes.
func (s *Store) AnalyzeStored(d Digest, opts core.Options) (*Result, error) {
	opts = opts.Normalized()
	// The snapshot carries no Figure-9 results; skipping the cache
	// simulations changes nothing in the stored bytes.
	opts.SkipPotential = true
	fp := Fingerprint(opts)
	res := &Result{
		TraceDigest:  d,
		SnapshotName: snapshotName(d, fp),
		GrammarName:  grammarName(d, fp),
	}
	if a, ok := s.Get(res.SnapshotName); ok && a.Kind == KindSnapshot {
		b, err := s.ReadBlob(a.Digest)
		if err != nil {
			return nil, err
		}
		obs.Default().Counter("store.memo.hits").Inc()
		res.Snapshot = b
		res.Hit = true
		return res, nil
	}
	obs.Default().Counter("store.memo.misses").Inc()

	rc, err := s.OpenBlob(d)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeStream(trace.NewReader(rc), opts)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("store: analyzing %s: %w", d, err)
	}

	snap, err := online.SnapshotFromAnalysis(a).MarshalIndent()
	if err != nil {
		return nil, err
	}
	meta := map[string]string{"trace": string(d), "params": fp}
	sd, sn, err := s.PutBytes(snap)
	if err != nil {
		return nil, err
	}
	if err := s.Put(res.SnapshotName, Artifact{Kind: KindSnapshot, Digest: sd, Size: sn, Meta: meta}); err != nil {
		return nil, err
	}

	var gbuf bytes.Buffer
	if _, err := a.Pipeline.Levels[0].WPS.WriteBinary(&gbuf); err != nil {
		return nil, fmt.Errorf("store: encoding grammar: %w", err)
	}
	gd, gn, err := s.PutBytes(gbuf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := s.Put(res.GrammarName, Artifact{Kind: KindGrammar, Digest: gd, Size: gn, Meta: meta}); err != nil {
		return nil, err
	}

	res.Snapshot = snap
	return res, nil
}
