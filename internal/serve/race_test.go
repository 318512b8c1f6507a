package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/online"
)

// ingestResponse mirrors the /v1/ingest 200 body for tests.
type ingestResponse struct {
	Ingested uint64 `json:"ingested"`
	Session  string `json:"session"`
	Events   uint64 `json:"events"`
}

// TestCloseVsIngestRace hammers the close/ingest race the closed flag
// fixes: before it, an ingest that resolved the session pointer just
// before a concurrent close removed it appended into the orphaned
// engine and returned 200 while the records vanished. The invariant
// checked here is exactly "no acknowledged record vanishes": every
// event acknowledged with a 200 is accounted for either in the close
// result or in a freshly created successor session, and racing ingests
// otherwise get 410 Gone. Run under -race, this also exercises the
// drain ordering between beginIngest, the engine loop, and close.
func TestCloseVsIngestRace(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()

	b := genTrace(t, "boxsim", 4000, 7)
	events := b.Events()
	seed := encodeEvents(t, events[:len(events)/2])
	racer := encodeEvents(t, events[len(events)/2:])
	seedN := uint64(len(events) / 2)
	racerN := uint64(len(events) - len(events)/2)

	for round := 0; round < 30; round++ {
		name := fmt.Sprintf("race%d", round)
		url := ts.URL + "/v1/ingest?session=" + name
		if code, body := post(t, url, seed); code != http.StatusOK {
			t.Fatalf("seed ingest: status %d: %s", code, body)
		}

		type ingestOut struct {
			code int
			body []byte
		}
		ingested := make(chan ingestOut, 1)
		go func() {
			code, body := post(t, url, racer)
			ingested <- ingestOut{code, body}
		}()
		closeCode, closeBody := post(t, ts.URL+"/v1/close?session="+name, nil)
		ing := <-ingested

		if closeCode != http.StatusOK {
			t.Fatalf("round %d: close status %d: %s", round, closeCode, closeBody)
		}
		var closed CloseResult
		if err := json.Unmarshal(closeBody, &closed); err != nil {
			t.Fatal(err)
		}

		// Where did the racing upload land?
		var acked uint64
		switch ing.code {
		case http.StatusOK:
			var res ingestResponse
			if err := json.Unmarshal(ing.body, &res); err != nil {
				t.Fatal(err)
			}
			if res.Ingested != racerN {
				t.Fatalf("round %d: 200 ingest acknowledged %d events, want %d", round, res.Ingested, racerN)
			}
			acked = racerN
		case http.StatusGone:
			// The fixed race: the upload resolved the session pointer but
			// lost to close; nothing was appended anywhere.
		default:
			t.Fatalf("round %d: racing ingest status %d: %s", round, ing.code, ing.body)
		}

		// Any successor session created after the close holds the rest.
		var leftover uint64
		if code, _ := get(t, ts.URL+"/v1/snapshot?session="+name); code == http.StatusOK {
			code, body := post(t, ts.URL+"/v1/close?session="+name, nil)
			if code != http.StatusOK {
				t.Fatalf("round %d: successor close status %d: %s", round, code, body)
			}
			var succ CloseResult
			if err := json.Unmarshal(body, &succ); err != nil {
				t.Fatal(err)
			}
			leftover = succ.Events
		}
		if got, want := closed.Events+leftover, seedN+acked; got != want {
			t.Fatalf("round %d: %d events accounted for (closed %d + successor %d), want %d — acknowledged records vanished",
				round, got, closed.Events, leftover, want)
		}
	}
}

// TestSlowClientDoesNotBlockStatus pins the head-of-line-blocking fix:
// the old handler held sess.mu across the upload's network reads, so
// one stalled client wedged /v1/sessions and the locserve.rules gauge
// behind the lock. The handler takes sess.mu only to ingest each
// decoded buffer, never across a body read, so status endpoints and the
// stalled session's own snapshot must answer while the upload sits
// stalled mid-record.
func TestSlowClientDoesNotBlockStatus(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()

	b := genTrace(t, "boxsim", 2000, 5)
	enc := encodeEvents(t, b.Events())

	pr, pw := io.Pipe()
	upload := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest?session=slow", "application/octet-stream", pr)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("ingest status %d", resp.StatusCode)
			}
		}
		upload <- err
	}()
	// Deliver a prefix ending mid-record, then stall with the request
	// still open: the handler is now parked in a body read.
	if _, err := pw.Write(enc[:len(enc)/2+3]); err != nil {
		t.Fatal(err)
	}

	// Status endpoints must answer while the upload is stalled. The
	// watchdog only trips if a request wedges outright (the old behavior:
	// blocked until the uploader finished).
	answered := make(chan struct{})
	go func() {
		for _, path := range []string{"/v1/sessions", "/debug/vars", "/v1/snapshot?session=slow", "/v1/metrics"} {
			if code, body := get(t, ts.URL+path); code != http.StatusOK {
				t.Errorf("%s during stalled upload: status %d: %s", path, code, body)
			}
		}
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("status endpoints did not answer while an upload was stalled")
	}

	// Finish the upload and check nothing was lost.
	if _, err := pw.Write(enc[len(enc)/2+3:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-upload; err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("sessions after upload: status %d", code)
	}
	var listing struct {
		Sessions []sessionStatus `json:"sessions"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range listing.Sessions {
		if st.Session == "slow" {
			found = true
			if st.Events != uint64(b.Len()) {
				t.Fatalf("slow session ingested %d events, want %d", st.Events, b.Len())
			}
		}
	}
	if !found {
		t.Fatal("slow session missing from listing")
	}
}

// TestIngestAfterCloseCreatesFreshSession pins the non-racy half of the
// close semantics: an ingest that starts after close completed creates
// a new session under the same name rather than 410ing forever.
func TestIngestAfterCloseCreatesFreshSession(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()

	b := genTrace(t, "boxsim", 1500, 11)
	enc := encodeEvents(t, b.Events())
	if code, body := post(t, ts.URL+"/v1/ingest?session=phoenix", enc); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/close?session=phoenix", nil); code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, body)
	}
	code, body := post(t, ts.URL+"/v1/ingest?session=phoenix", enc)
	if code != http.StatusOK {
		t.Fatalf("re-ingest: status %d: %s", code, body)
	}
	var res ingestResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(b.Len()) {
		t.Fatalf("fresh session reports %d events, want %d (stale engine reused?)", res.Events, b.Len())
	}
}

// TestRepeatSnapshotsRaceUploads reads one session's snapshot and the
// fleet clusters view over and over while uploads extend it. Every
// served snapshot must be exactly the snapshot of some prefix of the
// uploads: a threshold remembered from an earlier input must never be
// applied to a later one. Run under -race, this also checks that the
// engine's remembered threshold is only touched under the session lock.
func TestRepeatSnapshotsRaceUploads(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 2, nil).Handler())
	defer ts.Close()

	b := genTrace(t, "boxsim", 8000, 3)
	parts := chunkEvents(b.Events(), 4)
	valid := map[string]bool{}
	ref := online.NewEngine(online.Options{})
	for _, part := range parts {
		ref.Ingest(part)
		sn, err := ref.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		valid[string(sn)] = true
	}

	url := ts.URL + "/v1/ingest?session=memo"
	if code, body := post(t, url, encodeEvents(t, parts[0])); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	fetch := func(path string) (int, []byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	readers := []string{"/v1/snapshot?session=memo", "/v1/snapshot?session=memo", "/v1/fleet/clusters"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Each reader sends at most one error and then returns.
	errs := make(chan error, len(readers))
	for _, path := range readers {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, body, err := fetch(path)
				switch {
				case err != nil:
					errs <- err
					return
				case code != http.StatusOK:
					errs <- fmt.Errorf("%s: status %d: %s", path, code, body)
					return
				case strings.HasPrefix(path, "/v1/snapshot") && !valid[string(body)]:
					errs <- fmt.Errorf("%s served a snapshot of no upload prefix", path)
					return
				}
			}
		}(path)
	}
	for _, part := range parts[1:] {
		if code, body := post(t, url, encodeEvents(t, part)); code != http.StatusOK {
			t.Errorf("ingest: status %d: %s", code, body)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := batchSnapshot(t, b)
	for i := 0; i < 2; i++ {
		if code, got := get(t, ts.URL+"/v1/snapshot?session=memo"); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d after the uploads: status %d, differs from batch: %v", i, code, !bytes.Equal(got, want))
		}
	}
}
