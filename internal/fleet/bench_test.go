package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/online"
	"repro/internal/workload"
)

// benchFleet builds a deterministic synthetic fleet: sessions spread
// over families whose members share most streams, the shape real
// per-user sessions of a few application versions take.
func benchFleet(sessions, streamsPer int) []*Fingerprint {
	r := rand.New(rand.NewSource(42))
	families := 4
	bases := make([][]Stream, families)
	for f := range bases {
		for i := 0; i < streamsPer; i++ {
			seq := randSeq(r, 12)
			freq := uint64(1 + r.Intn(100))
			bases[f] = append(bases[f], Stream{
				Seq: seq, Length: len(seq), Freq: freq,
				Weight: uint64(len(seq)) * freq, Sessions: 1,
			})
		}
	}
	fps := make([]*Fingerprint, sessions)
	for i := range fps {
		fam := bases[i%families]
		f := &Fingerprint{Session: fmt.Sprintf("s%03d", i), Sessions: 1, Refs: 100_000}
		for _, s := range fam {
			// Per-session jitter: occasionally mutate a stream so the
			// fuzzy path (not just the exact-key short-circuit) runs.
			if r.Intn(4) == 0 {
				seq := append([]uint64(nil), s.Seq...)
				seq[r.Intn(len(seq))] = uint64(r.Intn(12))
				s.Seq = seq
			}
			f.Streams = append(f.Streams, s)
		}
		f.canonicalize()
		fps[i] = f
	}
	return fps
}

// BenchmarkFleetSimilarity measures one fingerprint-pair comparison
// (64 hot streams per side, a quarter fuzzily mutated).
func BenchmarkFleetSimilarity(b *testing.B) {
	fps := benchFleet(2, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(fps[0], fps[1])
	}
}

// BenchmarkFleetClusters measures the full clustering pass — pairwise
// matrix plus agglomerative merging — over a 32-session fleet.
func BenchmarkFleetClusters(b *testing.B) {
	fps := benchFleet(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Clusters(fps, DefaultClusterThreshold, 4)
	}
}

// BenchmarkFleetGather times each step of a gateway's fleet view on the
// shape of locbench's cluster-mixed half-way fleet: one 15k-reference
// session of each of its six many-stream families. A shard fingerprints
// its sessions (new) and encodes the listing (encode); the gateway
// decodes it (decode) and merges the top streams (topstreams). The JSON
// steps are the public /v1/fleet/fingerprints listing's cost on the same
// fleet.
func BenchmarkFleetGather(b *testing.B) {
	families := []string{"sqlserver", "197.parser", "300.twolf", "boxsim", "176.gcc", "181.mcf"}
	snaps := make([]*online.Snapshot, len(families))
	for i, fam := range families {
		buf, err := workload.Generate(fam, 15_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		e := online.NewEngine(online.Options{})
		e.Ingest(buf.Events())
		snaps[i] = e.Snapshot()
	}
	fps := make([]*Fingerprint, len(snaps))
	newAll := func() {
		for i, snap := range snaps {
			fps[i] = New(families[i], snap)
		}
	}
	newAll()
	view := BuildFingerprintsView(fps)
	var wire, js bytes.Buffer
	if err := EncodeFingerprints(&wire, view); err != nil {
		b.Fatal(err)
	}
	if err := json.NewEncoder(&js).Encode(view); err != nil {
		b.Fatal(err)
	}
	streams := 0
	for _, f := range fps {
		streams += len(f.Streams)
	}
	b.Logf("%d sessions, %d streams; listing %d B varint, %d B JSON", len(fps), streams, wire.Len(), js.Len())

	run := func(name string, step func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("new", func() error { newAll(); return nil })
	run("encode", func() error {
		var buf bytes.Buffer
		return EncodeFingerprints(&buf, view)
	})
	run("decode", func() error {
		_, err := DecodeFingerprints(wire.Bytes())
		return err
	})
	run("json-encode", func() error {
		var buf bytes.Buffer
		return json.NewEncoder(&buf).Encode(view)
	})
	run("json-decode", func() error {
		var v FingerprintsView
		return json.Unmarshal(js.Bytes(), &v)
	})
	run("topstreams", func() error { TopStreams(fps, DefaultTop); return nil })
}
