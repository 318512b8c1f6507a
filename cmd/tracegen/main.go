// Command tracegen generates a benchmark's data-reference trace in the
// paper's binary record format (9-byte load/store records, 13-byte
// allocation records) and writes it to a file — the role Vulcan
// instrumentation plays in §5.1.
//
// With -stream it acts as an instrumented process instead: records are
// emitted as a live stream — to stdout for piping, or POSTed to a
// locserve ingest endpoint — optionally throttled to a target rate, and
// either freshly generated or replayed from an existing trace file.
//
// Usage:
//
//	tracegen -bench 176.gcc -refs 1000000 -o gcc.trace
//	tracegen -bench boxsim -stream | locstats -trace /dev/stdin
//	tracegen -bench boxsim -stream -url http://localhost:8080/v1/ingest?session=box
//	tracegen -stream -in gcc.trace -rate 50000 -url http://localhost:8080/v1/ingest?session=gcc
//	tracegen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	gen := cliflags.GenFlags(flag.CommandLine)
	out := flag.String("o", "", "output file (default <bench>.trace)")
	list := flag.Bool("list", false, "list available benchmarks")
	stream := flag.Bool("stream", false, "stream records to stdout (or -url) instead of writing a file")
	rate := flag.Int("rate", 0, "records per second in -stream mode (0 = unthrottled)")
	url := flag.String("url", "", "in -stream mode, POST the records to this locserve ingest URL")
	in := flag.String("in", "", "in -stream mode, replay this trace file instead of generating")
	retries := flag.Int("retries", 5, "in -stream -url mode, retry transient connection errors up to this many times")
	backoff := flag.Duration("retry-backoff", 100*time.Millisecond, "initial retry delay; doubles per attempt, capped")
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-14s %s\n", w.Name(), w.Description())
		}
		return
	}
	if *stream {
		if err := runStream(gen, *in, *url, *rate, *retries, *backoff); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}
	if gen.Bench == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench required (try -list)")
		os.Exit(2)
	}
	b, err := gen.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = gen.Bench + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	w := trace.NewWriter(f)
	if err := w.WriteAll(b); err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	st := b.Stats()
	fmt.Printf("%s: %d events (%d refs, %d allocs), %d bytes -> %s\n",
		gen.Bench, b.Len(), st.Refs, st.Allocs, st.TraceBytes, path)
}

// runStream emits records as a live stream: generated from a benchmark
// or replayed from a trace file, throttled to rate records/s, to stdout
// or an HTTP ingest endpoint (where transient failures retry with
// capped exponential backoff — the emit closure regenerates or reopens
// its source on every call, so a retry replays the whole stream).
func runStream(gen *cliflags.Input, in, url string, rate, retries int, backoff time.Duration) error {
	if gen.Bench == "" && in == "" {
		return errors.New("-stream needs -bench or -in")
	}
	start := time.Now()
	var count uint64
	emit := func(w io.Writer) error {
		tw := trace.NewWriter(w)
		// Pacing flushes and sleeps every `chunk` records so the schedule
		// is tracked at ~20ms granularity and the receiver sees a live
		// stream, not one buffered burst.
		chunk := uint64(rate / 50)
		if chunk == 0 {
			chunk = 1
		}
		write := func(e trace.Event) error {
			if err := tw.Write(e); err != nil {
				return err
			}
			if rate > 0 && tw.Count()%chunk == 0 {
				if err := tw.Flush(); err != nil {
					return err
				}
				target := start.Add(time.Duration(float64(tw.Count()) / float64(rate) * float64(time.Second)))
				time.Sleep(time.Until(target))
			}
			return nil
		}
		var err error
		if in != "" {
			var f *os.File
			if f, err = os.Open(in); err != nil {
				return err
			}
			err = trace.Decode(f, write)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		} else {
			var b *trace.Buffer
			if b, err = gen.Generate(); err != nil {
				return err
			}
			for _, e := range b.Events() {
				if err = write(e); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
		count = tw.Count()
		return tw.Flush()
	}

	if url == "" {
		if err := emit(os.Stdout); err != nil {
			return err
		}
	} else if err := streamHTTP(url, emit, retries, backoff); err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	perSec := float64(count)
	if elapsed > 0 {
		perSec = float64(count) / elapsed
	}
	fmt.Fprintf(os.Stderr, "tracegen: streamed %d records in %.2fs (%.0f records/s)\n",
		count, elapsed, perSec)
	return nil
}

// maxBackoff caps the exponential retry delay: past a few doublings a
// longer wait only delays recovery without reducing load.
const maxBackoff = 5 * time.Second

// streamHTTP uploads the stream, retrying transient failures — a shard
// or gateway restarting mid-run — with capped exponential backoff. A
// retry replays the whole stream from the (restartable) emit closure;
// non-transient failures (decode errors, 4xx) surface immediately.
func streamHTTP(url string, emit func(io.Writer) error, retries int, backoff time.Duration) error {
	for attempt := 0; ; attempt++ {
		err := postStream(url, emit)
		var te *transientError
		if err == nil || attempt >= retries || !errors.As(err, &te) {
			return err
		}
		delay := backoff << uint(attempt)
		if delay > maxBackoff {
			delay = maxBackoff
		}
		fmt.Fprintf(os.Stderr, "tracegen: %v; retrying in %v (attempt %d/%d)\n",
			err, delay, attempt+1, retries)
		time.Sleep(delay)
	}
}

// transientError marks a failure worth retrying: the connection never
// formed, broke, or the server answered with a gateway-unavailable
// status.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// transientNet reports whether a transport error is a connection-level
// failure (refused, reset, closed, or torn down mid-exchange).
func transientNet(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// transientStatus reports whether an HTTP status signals a temporarily
// unavailable backend (a gateway whose shard set is mid-change, or a
// proxy in front of a restarting server).
func transientStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// postStream pipes the emitted records into a single chunked POST, so
// the server ingests while the client is still generating. Failures
// eligible for retry come back wrapped in transientError.
func postStream(url string, emit func(io.Writer) error) error {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := emit(pw)
		// Propagate an emit failure to the POST body so the request
		// aborts instead of looking like a clean (truncated) upload.
		_ = pw.CloseWithError(err)
		done <- err
	}()
	resp, err := http.Post(url, "application/octet-stream", pr)
	if err != nil {
		// A closed pipe means the transport tore the body down after the
		// connection failed, so the POST error is the cause. Any other
		// emit error is the source failing, which is never retried.
		if eerr := <-done; eerr != nil && !errors.Is(eerr, io.ErrClosedPipe) {
			return errors.Join(eerr, err)
		}
		if transientNet(err) {
			return &transientError{err}
		}
		return err
	}
	body, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if err := <-done; err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		if transientStatus(resp.StatusCode) {
			return &transientError{err}
		}
		return err
	}
	// Echo the server's ingest summary (events, rules, evictions).
	fmt.Print(string(body))
	return nil
}
