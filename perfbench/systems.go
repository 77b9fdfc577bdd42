package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/datasets"
	"parsample/internal/server"
)

// A system is one workload's set-up system under test.
type system interface {
	// send runs item i through the system under test and returns the
	// response body. buf is the calling client's scratch buffer, which the
	// body may alias until that client's next send.
	send(i int, buf *bytes.Buffer) ([]byte, error)
	// reference recomputes item i's output without the system under test:
	// a fresh Pipeline's Do, or the primed body.
	reference(i int) ([]byte, error)
	// replay runs item i through each layer's public functions under tr.
	// With roundtrip set it also sends the item through the system under
	// test and fails unless both outputs are byte-identical.
	replay(ctx context.Context, tr *tracer, i int, roundtrip bool) error
	// pipeline is the daemon's Pipeline, whose store counters the traced
	// run reports.
	pipeline() *parsample.Pipeline
	close()
}

// ---------------------------------------------------------------- daemon

// daemon is the serving tier under test: server.New over a fresh
// Pipeline behind a real loopback listener, configured as RunDaemon is
// with no flags — a 2 ms batch window, the gate's 2000-unit capacity and
// 64-deep queue, a 64 MiB body limit, datasets served lazily.
type daemon struct {
	p      *parsample.Pipeline
	srv    *http.Server
	url    string
	served chan error
	client *http.Client
}

// startDaemon boots a daemon and a client with at most conns connections
// to it, and waits until it answers.
func startDaemon(conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	p := parsample.New(parsample.WithBatchWindow(2 * time.Millisecond))
	d := &daemon{
		p: p,
		srv: &http.Server{
			Handler:           server.New(server.Config{Pipeline: p, MaxBodyBytes: 64 << 20}),
			ReadHeaderTimeout: 10 * time.Second,
		},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("daemon health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("daemon health check: status %d", resp.StatusCode)
	}
	return d, nil
}

// clientIDs is how many client ids the load rotates over. The gate's
// default fair share is 1000 units/s per client; with one id per client
// goroutine the warm loop is mostly 429'd.
const clientIDs = 64

// post sends one request body and reads the whole reply into buf.
func (d *daemon) post(body []byte, i int, buf *bytes.Buffer) (status int, cache string, out []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/pipeline", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.ClientHeader, fmt.Sprintf("perfbench-%02d", i%clientIDs))
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", nil, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, resp.Header.Get(server.CacheHeader), buf.Bytes(), nil
}

// expect checks a reply's status and cache provenance.
func expect(status int, cache string, body []byte, wantCache string) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if cache != wantCache {
		return fmt.Errorf("cache %q, want %q", cache, wantCache)
	}
	return nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.p.Close()
}

// encodeResponse marshals a response exactly as the daemon writes it.
func encodeResponse(resp *api.Response) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// prebuildDatasets builds the three evaluation networks the dataset
// workloads request — the work a daemon pays when it first serves them.
func prebuildDatasets() {
	for _, name := range []string{"YNG", "MID", "CRE"} {
		spec, _ := datasets.SpecFor(name)
		datasets.Build(spec)
	}
}

// warmDatasetCache fills the process-wide dataset cache the daemon
// resolves from, so every set-up repetition does the same work.
func warmDatasetCache() { datasets.YNG(); datasets.MID(); datasets.CRE() }

// -------------------------------------------------------------- cold HTTP

// coldHTTP is a daemon fed distinct requests: every stage of every
// request computes.
type coldHTTP struct {
	d     *daemon
	items func(int) item
}

// startCold boots the daemon and sends it one warm-up request from
// outside the list, so the measured phase starts on an open connection
// and exercised code paths.
func startCold(items func(int) item, warmup item, prebuild bool) (system, error) {
	if prebuild {
		prebuildDatasets()
	}
	d, err := startDaemon(clients)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	status, cache, body, err := d.post(warmup.body, 0, &buf)
	if err == nil {
		err = expect(status, cache, body, "miss")
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return &coldHTTP{d: d, items: items}, nil
}

func (s *coldHTTP) send(i int, buf *bytes.Buffer) ([]byte, error) {
	status, cache, body, err := s.d.post(s.items(i).body, i, buf)
	if err != nil {
		return nil, err
	}
	return body, expect(status, cache, body, "miss")
}

func (s *coldHTTP) reference(i int) ([]byte, error) {
	p := parsample.New()
	defer p.Close()
	resp, err := p.Do(context.Background(), s.items(i).req)
	if err != nil {
		return nil, err
	}
	return encodeResponse(resp)
}

func (s *coldHTTP) replay(ctx context.Context, tr *tracer, i int, roundtrip bool) error {
	it := s.items(i)
	root := tr.begin("request")
	out, err := replayRequest(ctx, tr, it.body)
	tr.end(root)
	if err != nil || !roundtrip {
		return err
	}
	var buf bytes.Buffer
	return tr.roundtrip(root, out, func() ([]byte, error) { return s.send(i, &buf) })
}

func (s *coldHTTP) pipeline() *parsample.Pipeline { return s.d.p }
func (s *coldHTTP) close()                        { s.d.close() }

// --------------------------------------------------------------- warm-mix

// warmHTTP is a daemon primed with a small request set that the list then
// repeats: every stage of every request is a store hit. Each round of the
// list sends every primed request once, in a seeded order.
type warmHTTP struct {
	d      *daemon
	primed []item
	want   [][]byte // the primed response bodies
	order  *roundList
}

func startWarm(seed int64) (system, error) {
	prebuildDatasets()
	d, err := startDaemon(clients)
	if err != nil {
		return nil, err
	}
	s := &warmHTTP{d: d, primed: warmPrimed(seed)}
	s.order = newRoundList(len(s.primed), seed)
	s.want = make([][]byte, len(s.primed))
	// Prime from as many goroutines as the load has clients.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := c; k < len(s.primed); k += clients {
				status, cache, body, err := d.post(s.primed[k].body, k, &buf)
				if err == nil {
					err = expect(status, cache, body, "miss")
				}
				if err != nil {
					errs[c] = fmt.Errorf("priming %s: %w", s.primed[k].class, err)
					return
				}
				s.want[k] = bytes.Clone(body)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}
	return s, nil
}

func (s *warmHTTP) send(i int, buf *bytes.Buffer) ([]byte, error) {
	k := s.order.slot(i)
	status, cache, body, err := s.d.post(s.primed[k].body, i, buf)
	if err != nil {
		return nil, err
	}
	if err := expect(status, cache, body, "hit"); err != nil {
		return nil, err
	}
	if !bytes.Equal(body, s.want[k]) {
		return nil, fmt.Errorf("%s: body differs from the primed response", s.primed[k].class)
	}
	return body, nil
}

func (s *warmHTTP) reference(i int) ([]byte, error) { return s.want[s.order.slot(i)], nil }

// replay walks the warm request path: decode, normalize, fingerprint,
// price, the resident probe admission uses, the memoized Do and the
// encoder — the layers a warm hit spends its time in.
func (s *warmHTTP) replay(ctx context.Context, tr *tracer, i int, roundtrip bool) error {
	k := s.order.slot(i)
	root := tr.begin("request")
	out, err := replayWarm(ctx, tr, s.d.p, s.primed[k].body)
	tr.end(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, s.want[k]) {
		return fmt.Errorf("%s: replayed body differs from the primed response", s.primed[k].class)
	}
	if !roundtrip {
		return nil
	}
	var buf bytes.Buffer
	return tr.roundtrip(root, out, func() ([]byte, error) { return s.send(i, &buf) })
}

func (s *warmHTTP) pipeline() *parsample.Pipeline { return s.d.p }
func (s *warmHTTP) close()                        { s.d.close() }
