package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/faultinject"
)

// TestMain asserts the serving tier leaks no goroutines: shed SSE
// streams, cancelled jobs, admission waiters and fault-injected runs must
// all unwind. The grace loop absorbs net/http's connection teardown.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	http.DefaultClient.CloseIdleConnections()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "server: %d goroutines leaked (baseline %d):\n%s\n", n-base, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// decodeAPIError unmarshals a structured error body.
func decodeAPIError(t *testing.T, body []byte) *api.Error {
	t.Helper()
	var ae api.Error
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("error body is not a structured api.Error: %v (%s)", err, body)
	}
	return &ae
}

// synthBody builds a synthesis request body with its knobs exposed.
func synthBody(genes, samples, seed int, extra string) string {
	return fmt.Sprintf(`{
		"network": {"synthesis": {"genes": %d, "samples": %d, "modules": 4, "moduleSize": 8, "seed": %d}},
		"filter": {"algorithm": "chordal-nocomm", "ordering": "HD", "p": 2, "seed": 3}%s
	}`, genes, samples, seed, extra)
}

// ---------------------------------------------------------- satellite: 413

// TestPayloadTooLarge: a body over the limit must produce a structured
// 413 payload_too_large (not a bare 400), counted in the /statsz
// rejection breakdown.
func TestPayloadTooLarge(t *testing.T) {
	p := parsample.New()
	ts := httptest.NewServer(New(Config{Pipeline: p, MaxBodyBytes: 256}))
	t.Cleanup(ts.Close)

	big := synthBody(192, 24, 7, `, "padding": "`+strings.Repeat("x", 512)+`"`)
	resp, body := post(t, ts.URL+"/v1/pipeline", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodePayloadTooLarge {
		t.Fatalf("code = %q, want %q", ae.Code, api.CodePayloadTooLarge)
	}
	_, sb := get(t, ts.URL+"/statsz")
	var st struct {
		Admission admitStats `json:"admission"`
	}
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Rejected.PayloadTooLarge != 1 {
		t.Fatalf("statsz payloadTooLarge = %d, want 1", st.Admission.Rejected.PayloadTooLarge)
	}
}

// ------------------------------------------------ satellite: DELETE races

// TestJobDeleteIdempotentOnFinished: DELETE on a job in a terminal state
// is a 200 no-op that cannot change the outcome, repeatably.
func TestJobDeleteIdempotentOnFinished(t *testing.T) {
	ts, _ := newTestServer(t)
	_, body := post(t, ts.URL+"/v1/jobs", smallSynthBody)
	var ji JobInfo
	if err := json.Unmarshal(body, &ji); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL+"/v1/jobs/"+ji.ID, JobDone, 30*time.Second)

	for i := 0; i < 3; i++ {
		resp, body := doDelete(t, ts.URL+"/v1/jobs/"+ji.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE #%d on finished job: status %d, want 200 (%s)", i, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Status != JobDone || info.Response == nil {
			t.Fatalf("DELETE #%d mutated the finished job: status %q", i, info.Status)
		}
	}
}

// TestJobDeleteConcurrentRace: many DELETEs racing one running job (and
// each other) must all succeed structurally — each sees 200 or 202 and a
// coherent status — and the job must land exactly once in a terminal
// state (cancelled, or done if the run won the race).
func TestJobDeleteConcurrentRace(t *testing.T) {
	ts, _ := newTestServer(t)
	// A heavier synthesis so cancellation usually lands mid-kernel.
	_, body := post(t, ts.URL+"/v1/jobs", synthBody(1024, 48, 11, ""))
	var ji JobInfo
	if err := json.Unmarshal(body, &ji); err != nil {
		t.Fatal(err)
	}
	const racers = 8
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ji.ID, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("racing DELETE: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	// Whatever the race produced, the job settles in exactly one terminal
	// state and stays there.
	var final JobInfo
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts.URL+"/v1/jobs/"+ji.ID)
		if err := json.Unmarshal(body, &final); err != nil {
			t.Fatal(err)
		}
		if final.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled after concurrent DELETEs (status %q)", final.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.Status != JobCancelled && final.Status != JobDone {
		t.Fatalf("terminal status = %q, want cancelled or done", final.Status)
	}
	if resp, _ := doDelete(t, ts.URL+"/v1/jobs/"+ji.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after settlement: status %d, want 200", resp.StatusCode)
	}
}

// ------------------------------------------------------- admission gate

// neutralFairness disables per-client throttling so a test exercises the
// semaphore alone.
func neutralFairness(cfg Config) Config {
	cfg.ClientRateUnits = 1e9
	cfg.ClientBurstUnits = 1e9
	return cfg
}

// TestAdmissionOverCapacity: a request whose cold estimate exceeds the
// whole budget is a structured 503 over_capacity — it could never run.
func TestAdmissionOverCapacity(t *testing.T) {
	p := parsample.New()
	ts := httptest.NewServer(New(neutralFairness(Config{Pipeline: p, CapacityUnits: 5})))
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(2048, 64, 5, ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodeOverCapacity {
		t.Fatalf("code = %q, want %q", ae.Code, api.CodeOverCapacity)
	}
}

// TestAdmissionQueueFullRejects429: with the budget held by a stalled
// request and the queue at its bound, the next arrival is rejected
// immediately with 429 overloaded + Retry-After, while queued requests
// eventually run. The stall is a delay failpoint in the sweep kernel —
// real compute holding real units.
func TestAdmissionQueueFullRejects429(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	p := parsample.New()
	ts := httptest.NewServer(New(neutralFairness(Config{Pipeline: p, CapacityUnits: 2, QueueLimit: 1})))
	t.Cleanup(ts.Close)

	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: 600 * time.Millisecond, Count: 1})

	type result struct {
		status int
		body   []byte
		retry  string
	}
	do := func(seed int) result {
		resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", strings.NewReader(synthBody(192, 24, seed, "")))
		if err != nil {
			t.Error(err)
			return result{}
		}
		b := make([]byte, 4096)
		n, _ := resp.Body.Read(b)
		resp.Body.Close()
		return result{status: resp.StatusCode, body: b[:n], retry: resp.Header.Get("Retry-After")}
	}

	resA := make(chan result, 1)
	go func() { resA <- do(101) }() // admitted; stalls 600ms in the kernel
	time.Sleep(150 * time.Millisecond)
	resB := make(chan result, 1)
	go func() { resB <- do(102) }() // does not fit; parks in the queue
	time.Sleep(150 * time.Millisecond)

	// The queue is at its bound of 1: this arrival must bounce.
	c := do(103)
	if c.status != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429 (%s)", c.status, c.body)
	}
	if ae := decodeAPIError(t, c.body); ae.Code != api.CodeOverloaded || ae.RetryAfterSec < 1 {
		t.Fatalf("rejection = %+v, want overloaded with RetryAfterSec ≥ 1", ae)
	}
	if c.retry == "" {
		t.Fatal("429 carried no Retry-After header")
	}

	a, b := <-resA, <-resB
	if a.status != http.StatusOK {
		t.Fatalf("stalled request status = %d (%s)", a.status, a.body)
	}
	if b.status != http.StatusOK {
		t.Fatalf("queued request status = %d (%s)", b.status, b.body)
	}
}

// TestClientFairnessThrottles: one client spending past its token bucket
// is throttled 429 while a different client is still admitted.
func TestClientFairnessThrottles(t *testing.T) {
	p := parsample.New()
	// Burst covers ~1 cold small request (≈1.5 units); refill is slow.
	ts := httptest.NewServer(New(Config{Pipeline: p, CapacityUnits: 1000, ClientRateUnits: 0.001, ClientBurstUnits: 2}))
	t.Cleanup(ts.Close)

	doAs := func(client string, seed int) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/pipeline", strings.NewReader(synthBody(192, 24, seed, "")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ClientHeader, client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1<<20)
		n, _ := resp.Body.Read(b)
		resp.Body.Close()
		return resp.StatusCode, b[:n]
	}

	if st, body := doAs("alice", 201); st != http.StatusOK {
		t.Fatalf("alice's first request: %d (%s)", st, body)
	}
	st, body := doAs("alice", 202)
	if st != http.StatusTooManyRequests {
		t.Fatalf("alice's second request: %d, want 429 (%s)", st, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodeOverloaded || ae.RetryAfterSec < 1 {
		t.Fatalf("throttle error = %+v", ae)
	}
	if st, body := doAs("bob", 203); st != http.StatusOK {
		t.Fatalf("bob (fresh bucket) was throttled by alice's spend: %d (%s)", st, body)
	}
}

// ---------------------------------------------------------- deadlines

// TestDeadlineInfeasibleRejected: a deadline below the compute estimate
// is rejected up front as 503 over_capacity — before spending any budget.
func TestDeadlineInfeasibleRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(2048, 64, 31, `, "deadline_ms": 2`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodeOverCapacity {
		t.Fatalf("code = %q, want %q", ae.Code, api.CodeOverCapacity)
	}
}

// TestDeadlineExceededMidRun: a feasible deadline blown mid-kernel (a
// delay failpoint stalls the sweep) surfaces as 504 deadline_exceeded,
// and the interrupted artifacts are not poisoned — the retry without a
// deadline completes.
func TestDeadlineExceededMidRun(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t)
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Count: 1})

	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 41, `, "deadline_ms": 150`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", ae.Code, api.CodeDeadlineExceeded)
	}
	if resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 41, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after deadline: %d (%s)", resp.StatusCode, body)
	}
}

// TestJobDeadlineExceededMidRun is TestDeadlineExceededMidRun on
// /v1/jobs: the job's deadline starts after admission, and a run that
// blows it ends failed with deadline_exceeded rather than cancelled.
func TestJobDeadlineExceededMidRun(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t)
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Count: 1})

	resp, body := post(t, ts.URL+"/v1/jobs", synthBody(192, 24, 43, `, "deadline_ms": 150`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var ji JobInfo
	if err := json.Unmarshal(body, &ji); err != nil {
		t.Fatal(err)
	}
	failed := waitStatus(t, ts.URL+"/v1/jobs/"+ji.ID, JobFailed, 10*time.Second)
	if failed.Error == nil || failed.Error.Code != api.CodeDeadlineExceeded {
		t.Fatalf("job error = %+v, want code %q", failed.Error, api.CodeDeadlineExceeded)
	}
	if want := "job exceeded its 150ms deadline"; failed.Error.Message != want {
		t.Fatalf("job error message = %q, want %q", failed.Error.Message, want)
	}
	if resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 43, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after deadline: %d (%s)", resp.StatusCode, body)
	}
}

// TestSyncAndJobResponsesIdentical: the two endpoints share one run path,
// so one request answered synchronously and as a job — each cold on its
// own server — carries byte-identical response JSON.
func TestSyncAndJobResponsesIdentical(t *testing.T) {
	syncTS, _ := newTestServer(t)
	resp, syncBody := post(t, syncTS.URL+"/v1/pipeline", smallSynthBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: %d (%s)", resp.StatusCode, syncBody)
	}

	jobTS, _ := newTestServer(t)
	resp, body := post(t, jobTS.URL+"/v1/jobs", smallSynthBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var ji JobInfo
	if err := json.Unmarshal(body, &ji); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jobTS.URL+"/v1/jobs/"+ji.ID, JobDone, 30*time.Second)
	_, body = get(t, jobTS.URL+"/v1/jobs/"+ji.ID)
	var done struct {
		Response json.RawMessage `json:"response"`
	}
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	if got, want := string(done.Response), strings.TrimSuffix(string(syncBody), "\n"); got != want {
		t.Fatalf("job response differs from the sync body:\njob:  %s\nsync: %s", got, want)
	}
}

// ------------------------------------------------------- degradation

// TestDegradationShedsColdBeforeWarm: at rung 2 a cold synthesis request
// is shed 503 degraded while the resident repeat of a prior request would
// still be priced at the floor, and cold requests admit again once the
// pressure drops.
func TestDegradationShedsColdBeforeWarm(t *testing.T) {
	p := parsample.New()
	srv := New(neutralFairness(Config{Pipeline: p, CapacityUnits: 4, QueueLimit: 4}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Warm one request while the gate is idle.
	if resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 51, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d (%s)", resp.StatusCode, body)
	}

	// Manufacture rung-2 pressure: fill the budget, then park three
	// waiters (over half the queue bound of 4, but not at it — a full
	// queue means 429s, not sheds).
	relFill, ae := srv.gate.Admit(context.Background(), "filler", classInteractive, 4)
	if ae != nil {
		t.Fatal(ae)
	}
	ctxW, cancelW := context.WithCancel(context.Background())
	var waiters sync.WaitGroup
	for i := 0; i < 3; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if rel, ae := srv.gate.Admit(ctxW, "filler", classInteractive, 4); ae == nil {
				rel()
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); srv.gate.level() < degradeShedCold; {
		if time.Now().After(deadline) {
			t.Fatal("gate never reached rung 2")
		}
		time.Sleep(time.Millisecond)
	}

	// A cold synthesis request (unseen seed) is shed with 503 degraded.
	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 52, ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold request under rung 2: %d, want 503 (%s)", resp.StatusCode, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != api.CodeDegraded || ae.RetryAfterSec < 1 {
		t.Fatalf("shed error = %+v, want degraded with Retry-After", ae)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 degraded carried no Retry-After header")
	}

	// Drop the pressure; cold requests admit again.
	cancelW()
	waiters.Wait()
	relFill()
	if resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 52, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request after recovery: %d (%s)", resp.StatusCode, body)
	}
	_, sb := get(t, ts.URL+"/statsz")
	var st struct {
		Admission admitStats `json:"admission"`
	}
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Shed.ColdRequests != 1 || st.Admission.Rejected.Degraded != 1 {
		t.Errorf("shed stats = %+v, want 1 cold shed", st.Admission)
	}
}

// ------------------------------------------------- gate unit behavior

// TestGateStrictPriority: interactive waiters are granted before batch
// waiters, and a too-big interactive head is never bypassed.
func TestGateStrictPriority(t *testing.T) {
	g := newAdmitGate(admitConfig{Capacity: 10, QueueLimit: 8, ClientRate: 1e9, ClientBurst: 1e9})
	relHold, ae := g.Admit(context.Background(), "c", classInteractive, 10)
	if ae != nil {
		t.Fatal(ae)
	}

	type grant struct {
		rel func()
		ae  *api.Error
	}
	enqueue := func(class classID, units float64) chan grant {
		ch := make(chan grant, 1)
		go func() {
			rel, ae := g.Admit(context.Background(), "c", class, units)
			ch <- grant{rel, ae}
		}()
		return ch
	}
	waitQueued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); g.stats().QueueDepth < n; {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	batchCh := enqueue(classBatch, 7)
	waitQueued(1)
	interCh := enqueue(classInteractive, 7)
	waitQueued(2)

	relHold() // 10 units free: interactive (7) fits, batch head (7) does not
	inter := <-interCh
	if inter.ae != nil {
		t.Fatalf("interactive waiter rejected: %v", inter.ae)
	}
	select {
	case b := <-batchCh:
		t.Fatalf("batch waiter granted before interactive released (ae=%v)", b.ae)
	case <-time.After(100 * time.Millisecond):
	}
	st := g.stats()
	if st.InUseUnits != 7 || st.QueueDepth != 1 {
		t.Fatalf("after priority grant: inUse=%v queued=%d, want 7/1", st.InUseUnits, st.QueueDepth)
	}
	inter.rel()
	b := <-batchCh
	if b.ae != nil {
		t.Fatalf("batch waiter rejected after capacity freed: %v", b.ae)
	}
	b.rel()
	if st := g.stats(); st.InUseUnits != 0 || st.QueueDepth != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestGateAbandonedWaiterLeavesQueue: a queued waiter whose context dies
// is removed (no stuck queue slots, no lost units).
func TestGateAbandonedWaiterLeavesQueue(t *testing.T) {
	g := newAdmitGate(admitConfig{Capacity: 5, QueueLimit: 4, ClientRate: 1e9, ClientBurst: 1e9})
	rel, ae := g.Admit(context.Background(), "c", classInteractive, 5)
	if ae != nil {
		t.Fatal(ae)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan *api.Error, 1)
	go func() {
		_, ae := g.Admit(ctx, "c", classInteractive, 3)
		errCh <- ae
	}()
	for deadline := time.Now().Add(5 * time.Second); g.stats().QueueDepth < 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if ae := <-errCh; ae == nil || ae.Code != api.CodeCancelled {
		t.Fatalf("abandoned waiter error = %v, want cancelled", ae)
	}
	if st := g.stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after abandonment, want 0", st.QueueDepth)
	}
	rel()
	if st := g.stats(); st.InUseUnits != 0 {
		t.Fatalf("inUse = %v after release, want 0", st.InUseUnits)
	}
}

// TestGateTokenBucketRefills: a throttled client recovers as its bucket
// refills; the clock is faked so the test is deterministic.
func TestGateTokenBucketRefills(t *testing.T) {
	g := newAdmitGate(admitConfig{Capacity: 100, QueueLimit: 4, ClientRate: 10, ClientBurst: 20})
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }

	rel1, ae := g.Admit(context.Background(), "alice", classInteractive, 15)
	if ae != nil {
		t.Fatal(ae)
	}
	rel1()
	_, ae = g.Admit(context.Background(), "alice", classInteractive, 15)
	if ae == nil || ae.Code != api.CodeOverloaded || ae.RetryAfterSec != 1 {
		t.Fatalf("throttle = %v, want overloaded retry-after 1s (needs 10 more tokens at 10/s)", ae)
	}
	if _, ae := g.Admit(context.Background(), "bob", classInteractive, 15); ae != nil {
		t.Fatalf("bob throttled by alice's spend: %v", ae)
	}
	now = now.Add(2 * time.Second) // alice refills 5 + 20 ≥ cap 20
	rel3, ae := g.Admit(context.Background(), "alice", classInteractive, 15)
	if ae != nil {
		t.Fatalf("alice still throttled after refill: %v", ae)
	}
	rel3()
}

// TestCostHeaders: a synchronous response reports the admission estimate
// and the measured cost; the warm repeat reports ~zero actual cost.
func TestCostHeaders(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 61, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get(CostEstimateHeader) == "" || resp.Header.Get(CostActualHeader) == "" {
		t.Fatalf("missing cost headers: estimate=%q actual=%q",
			resp.Header.Get(CostEstimateHeader), resp.Header.Get(CostActualHeader))
	}
	warm, _ := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 61, ""))
	if warm.Header.Get(CacheHeader) != "hit" {
		t.Fatalf("repeat was not a cache hit (%q)", warm.Header.Get(CacheHeader))
	}
	if act := warm.Header.Get(CostActualHeader); act != "0.0" {
		t.Errorf("warm actual cost = %q, want 0.0 (no stage computed)", act)
	}
}

// TestCostActualIsRunWallTime: the actual cost of a miss is the run's wall
// time, so it can never exceed the round trip the client observed. Every
// store lookup is delayed, which makes each stage's inclusive duration
// carry its dependencies' delays too: a sum over stages would count that
// nested work more than once and overshoot the round trip.
func TestCostActualIsRunWallTime(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t)
	faultinject.Enable("pipeline.store.get", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: 40 * time.Millisecond})

	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/pipeline", synthBody(192, 24, 62, ""))
	roundTripMS := float64(time.Since(start).Microseconds()) / 1000
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if c := resp.Header.Get(CacheHeader); c != "miss" {
		t.Fatalf("cache = %q, want miss", c)
	}
	actual, err := strconv.ParseFloat(resp.Header.Get(CostActualHeader), 64)
	if err != nil {
		t.Fatal(err)
	}
	if actual <= 0 || actual > roundTripMS {
		t.Errorf("actual cost = %.1f units, want in (0, %.1f], the client's round trip in ms", actual, roundTripMS)
	}
}

// TestGateInteractiveExpressLane: with the budget saturated by batch
// work, a cheap interactive request (≤ 5% of capacity) is admitted
// immediately through the headroom overdraft, while an equally cheap
// batch request still queues, and an interactive request above the
// express threshold also queues.
func TestGateInteractiveExpressLane(t *testing.T) {
	g := newAdmitGate(admitConfig{Capacity: 100, QueueLimit: 8, ClientRate: 1e9, ClientBurst: 1e9})
	relBig, ae := g.Admit(context.Background(), "filler", classBatch, 100)
	if ae != nil {
		t.Fatal(ae)
	}
	defer relBig()

	relFast, ae := g.Admit(context.Background(), "probe", classInteractive, 2)
	if ae != nil {
		t.Fatalf("cheap interactive request should ride the express lane, got %v", ae)
	}
	defer relFast()
	if st := g.stats(); st.InUseUnits != 102 {
		t.Fatalf("inUse = %v, want 102 (overdraft)", st.InUseUnits)
	}

	// Same cost, batch class: no express lane, must queue.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, ae := g.Admit(ctx, "probe", classBatch, 2); ae == nil || ae.Code != api.CodeCancelled {
		t.Fatalf("cheap batch request bypassed the queue: %v", ae)
	}
	// Interactive but above the 5-unit express threshold: must queue.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, ae := g.Admit(ctx2, "probe", classInteractive, 6); ae == nil || ae.Code != api.CodeCancelled {
		t.Fatalf("expensive interactive request bypassed the queue: %v", ae)
	}
	// The overdraft itself is bounded: a second express request that would
	// exceed capacity+headroom queues like everyone else.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel3()
	if _, ae := g.Admit(ctx3, "probe", classInteractive, 4); ae == nil || ae.Code != api.CodeCancelled {
		t.Fatalf("express lane exceeded its headroom bound: %v", ae)
	}
}

// TestSSESlowConsumerShedViaFailpoint: the server.sse.write failpoint
// stands in for a consumer whose TCP buffer never drains (a blocked
// write that trips the per-frame deadline). The stream must be dropped
// without disturbing the job, and the shed must land in /statsz.
func TestSSESlowConsumerShedViaFailpoint(t *testing.T) {
	p := parsample.New()
	ts := httptest.NewServer(New(neutralFairness(Config{Pipeline: p})))
	t.Cleanup(ts.Close)
	resp, body := post(t, ts.URL+"/v1/jobs", smallSynthBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var ji JobInfo
	if err := json.Unmarshal(body, &ji); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL+"/v1/jobs/"+ji.ID, JobDone, 30*time.Second)

	t.Cleanup(faultinject.Reset)
	faultinject.Enable("server.sse.write", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})

	resp, body = get(t, ts.URL+"/v1/jobs/"+ji.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("shed stream delivered frames anyway: %q", body)
	}
	if got := faultinject.Fired("server.sse.write"); got != 1 {
		t.Fatalf("failpoint fired %d times, want 1", got)
	}
	var st struct {
		Admission admitStats `json:"admission"`
	}
	_, body = get(t, ts.URL+"/statsz")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Shed.SSESlowConsumers != 1 {
		t.Fatalf("shed.sseSlowConsumers = %d, want 1", st.Admission.Shed.SSESlowConsumers)
	}

	// The job itself is untouched and a healthy consumer still replays
	// the full stream.
	resp, body = get(t, ts.URL+"/v1/jobs/"+ji.ID+"/events")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "event: done") {
		t.Fatalf("replay after shed: %d %q", resp.StatusCode, body)
	}
}

// TestPanicFailsOnlyItsRequest: a panic injected while resolving the
// network source fails exactly the one sync request and the one job that
// hit it, with a structured internal error that carries no goroutine
// stack; a panic escaping Pipeline.Do fails only its sync request or job
// the same way. Afterwards no units are held, no job is running, and the
// identical request recomputes and succeeds.
func TestPanicFailsOnlyItsRequest(t *testing.T) {
	ts, _ := newTestServer(t)
	t.Cleanup(faultinject.Reset)
	noStack := func(what, msg string) {
		t.Helper()
		if strings.Contains(msg, "goroutine ") {
			t.Fatalf("%s leaks a goroutine stack: %q", what, msg)
		}
	}
	runSync := func() *api.Error {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/pipeline", smallSynthBody)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("sync request under an injected panic: %d %s", resp.StatusCode, body)
		}
		noStack("500 body", string(body))
		ae := decodeAPIError(t, body)
		if ae.Code != api.CodeInternal || !strings.Contains(ae.Message, "panicked") {
			t.Fatalf("sync error = %+v", ae)
		}
		return ae
	}
	runJob := func() *api.Error {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/jobs", smallSynthBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var ji JobInfo
		if err := json.Unmarshal(body, &ji); err != nil {
			t.Fatal(err)
		}
		failed := waitStatus(t, ts.URL+"/v1/jobs/"+ji.ID, JobFailed, 30*time.Second)
		if failed.Error == nil || failed.Error.Code != api.CodeInternal {
			t.Fatalf("failed job error = %+v, want code %q", failed.Error, api.CodeInternal)
		}
		return failed.Error
	}

	faultinject.Enable("parsample.resolve", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	runSync()
	faultinject.Enable("parsample.resolve", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	noStack("resolve-panic job error", runJob().Message)
	if got := faultinject.Fired("parsample.resolve"); got != 1 {
		t.Fatalf("parsample.resolve fired %d times for the job, want 1", got)
	}
	faultinject.Reset()

	// pipeline.store.get fires before any stage compute, outside every
	// kernel-level recover, so this panic leaves Pipeline.Do.
	faultinject.Enable("pipeline.store.get", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	if ae := runSync(); !strings.Contains(ae.Message, "server: request panicked") {
		t.Fatalf("escaped panic sync error = %+v, want the handler's containment", ae)
	}
	faultinject.Enable("pipeline.store.get", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	ae := runJob()
	if !strings.Contains(ae.Message, "server: job panicked") {
		t.Fatalf("escaped panic job error = %+v, want the job's containment", ae)
	}
	noStack("escaped-panic job error", ae.Message)
	faultinject.Reset()

	var st struct {
		Jobs      jobCounts  `json:"jobs"`
		Admission admitStats `json:"admission"`
	}
	_, body := get(t, ts.URL+"/statsz")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Running != 0 || st.Jobs.Finished != 2 || st.Admission.InUseUnits != 0 {
		t.Fatalf("after the failed jobs: jobs %+v, %v units in use", st.Jobs, st.Admission.InUseUnits)
	}
	resp, body := post(t, ts.URL+"/v1/pipeline", smallSynthBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical request after the panics: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("identical request after the panics: cache %q, want a recompute (miss)", got)
	}
}
