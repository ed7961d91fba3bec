package collective

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"alltoall/internal/torus"
)

// fullRequest exercises every canonical field at a non-default value.
func fullRequest() Request {
	return Request{
		Strategy:        StratTPS,
		Shape:           torus.New(8, 4, 2),
		MsgBytes:        240,
		Seed:            7,
		Burst:           3,
		PaceBurst:       5,
		PaceFraction:    0.5,
		Unpaced:         false,
		Shards:          2,
		Check:           true,
		Faults:          "0:5:+x:kill",
		MaxTime:         5_000_000,
		TPSLinear:       1,
		TPSCreditWindow: 32,
		TPSCreditBatch:  4,
		Observe:         true,
	}
}

// everyFieldRequest is fullRequest with the fields it leaves at zero set too,
// and fails the test if Request has a field that is still zero: a new field
// must be added here, and so to the tests that walk every field.
func everyFieldRequest(t *testing.T) Request {
	t.Helper()
	req := fullRequest()
	req.Unpaced = true
	req.VMeshRows, req.VMeshCols, req.VMeshMapOrder = 4, 16, "xzy"
	v := reflect.ValueOf(req)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Request.%s is zero in everyFieldRequest: set it there", v.Type().Field(i).Name)
		}
	}
	return req
}

// TestRequestJSONRoundTrip sets every field and demands it back from the
// wire; a field without a json tag (which would travel under its Go name) is
// an error.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := everyFieldRequest(t)
	rt := reflect.TypeOf(req)
	for i := 0; i < rt.NumField(); i++ {
		if tag, ok := rt.Field(i).Tag.Lookup("json"); !ok || tag == "-" {
			t.Errorf("Request.%s has no json tag", rt.Field(i).Name)
		}
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if back != req {
		t.Errorf("JSON round trip drifted:\n got %+v\nwant %+v\nwire %s", back, req, data)
	}
}

// TestRequestWireBytes pins the wire form and the key, which is that form
// with shards cleared: field order, the omitempty set, "shape":"" for the
// unset shape, tps_linear as a letter.
func TestRequestWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		req       Request
		wire, key string
	}{
		{"full", fullRequest(),
			`{"strategy":"TPS","shape":"8x4x2","msg_bytes":240,"seed":7,"burst":3,"pace_burst":5,"pace_fraction":0.5,` +
				`"shards":2,"check":true,"faults":"0:5:+x:kill","max_time":5000000,"tps_linear":"x",` +
				`"tps_credit_window":32,"tps_credit_batch":4,"observe":true}`,
			`aa5|{"strategy":"TPS","shape":"8x4x2","msg_bytes":240,"seed":7,"burst":3,"pace_burst":5,"pace_fraction":0.5,` +
				`"check":true,"faults":"0:5:+x:kill","max_time":5000000,"tps_linear":"x",` +
				`"tps_credit_window":32,"tps_credit_batch":4,"observe":true}`},
		{"every field", everyFieldRequest(t),
			`{"strategy":"TPS","shape":"8x4x2","msg_bytes":240,"seed":7,"burst":3,"pace_burst":5,"pace_fraction":0.5,` +
				`"unpaced":true,"shards":2,"check":true,"faults":"0:5:+x:kill","max_time":5000000,"tps_linear":"x",` +
				`"tps_credit_window":32,"tps_credit_batch":4,"vmesh_rows":4,"vmesh_cols":16,"vmesh_map_order":"xzy",` +
				`"observe":true}`,
			`aa5|{"strategy":"TPS","shape":"8x4x2","msg_bytes":240,"seed":7,"burst":3,"pace_burst":5,"pace_fraction":0.5,` +
				`"unpaced":true,"check":true,"faults":"0:5:+x:kill","max_time":5000000,"tps_linear":"x",` +
				`"tps_credit_window":32,"tps_credit_batch":4,"vmesh_rows":4,"vmesh_cols":16,"vmesh_map_order":"xzy",` +
				`"observe":true}`},
		{"zero", Request{},
			`{"strategy":"","shape":"","msg_bytes":0}`,
			`aa5|{"strategy":"","shape":"","msg_bytes":0}`},
	} {
		wire, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(wire) != tc.wire {
			t.Errorf("%s: wire form changed:\n got %s\nwant %s", tc.name, wire, tc.wire)
		}
		if k := tc.req.Key(); k != tc.key {
			t.Errorf("%s: key changed:\n got %s\nwant %s", tc.name, k, tc.key)
		}
	}
}

func TestRequestJSONNormalizesCase(t *testing.T) {
	var req Request
	wire := `{"strategy":"tps","shape":"8x4x2","msg_bytes":64,"tps_linear":"Y"}`
	if err := json.Unmarshal([]byte(wire), &req); err != nil {
		t.Fatal(err)
	}
	if req.Strategy != StratTPS {
		t.Errorf("strategy = %q, want TPS", req.Strategy)
	}
	if req.TPSLinear != 2 {
		t.Errorf("TPSLinear = %d, want 2 (Y)", req.TPSLinear)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("normalized request fails validation: %v", err)
	}
}

// TestRequestKeyInjective flips every canonical field in turn and demands a
// distinct key: a collision here would let the serving layer's cache return
// the wrong simulation. The fields listed in schedulingOnly are the
// exception, and the list is closed: they decide how a run is scheduled,
// never a Result byte, so flipping one must leave the key where it was (or
// the cache would run the same simulation twice).
func TestRequestKeyInjective(t *testing.T) {
	schedulingOnly := map[string]bool{"Shards": true}
	base := fullRequest()
	muts := map[string]func(*Request){
		"Strategy":        func(r *Request) { r.Strategy = StratAR },
		"Shape":           func(r *Request) { r.Shape = torus.New(4, 8, 2) },
		"MsgBytes":        func(r *Request) { r.MsgBytes++ },
		"Seed":            func(r *Request) { r.Seed++ },
		"Burst":           func(r *Request) { r.Burst++ },
		"PaceBurst":       func(r *Request) { r.PaceBurst++ },
		"PaceFraction":    func(r *Request) { r.PaceFraction = 0.25 },
		"Unpaced":         func(r *Request) { r.Unpaced = true },
		"Shards":          func(r *Request) { r.Shards++ },
		"Check":           func(r *Request) { r.Check = false },
		"Faults":          func(r *Request) { r.Faults = "0:5:+y:kill" },
		"MaxTime":         func(r *Request) { r.MaxTime++ },
		"TPSLinear":       func(r *Request) { r.TPSLinear = 2 },
		"TPSCreditWindow": func(r *Request) { r.TPSCreditWindow++ },
		"TPSCreditBatch":  func(r *Request) { r.TPSCreditBatch++ },
		"VMeshRows":       func(r *Request) { r.VMeshRows = 4 },
		"VMeshCols":       func(r *Request) { r.VMeshCols = 4 },
		"VMeshMapOrder":   func(r *Request) { r.VMeshMapOrder = "xzy" },
		"Observe":         func(r *Request) { r.Observe = false },
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		if muts[rt.Field(i).Name] == nil {
			t.Errorf("Request.%s is not mutated here: give it a json tag and a case in this test", rt.Field(i).Name)
		}
	}
	seen := map[string]string{base.Key(): "base"}
	for name, mut := range muts {
		r := base
		mut(&r)
		k := r.Key()
		if schedulingOnly[name] {
			if k != base.Key() {
				t.Errorf("%s only schedules the run, yet it moved the key: %s", name, k)
			}
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s: %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestRequestKeyDistinguishesUnitDims guards the Shape.Canon fix: String()
// collapses unit dimensions ([8,8,1] and [8,1,8] both render "8x8"), so a
// key built on String() would alias genuinely different partitions.
func TestRequestKeyDistinguishesUnitDims(t *testing.T) {
	a := Request{Strategy: StratAR, Shape: torus.New(8, 8, 1), MsgBytes: 64}
	b := Request{Strategy: StratAR, Shape: torus.New(8, 1, 8), MsgBytes: 64}
	if a.Key() == b.Key() {
		t.Fatalf("shapes %v and %v share key %s", a.Shape, b.Shape, a.Key())
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("good request: %v", err)
	}
	if err := fullRequest().Validate(); err != nil {
		t.Fatalf("full request: %v", err)
	}
	bad := map[string]Request{
		"strategy":  {Strategy: "bogus", Shape: torus.New(4, 4, 2), MsgBytes: 64},
		"lowercase": {Strategy: "ar", Shape: torus.New(4, 4, 2), MsgBytes: 64},
		"msg":       {Strategy: StratAR, Shape: torus.New(4, 4, 2)},
		"shards":    {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Shards: -1},
		"pace":      {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, PaceFraction: 1.5},
		"pace NaN":  {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, PaceFraction: math.NaN()},
		"faults":    {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Faults: "nope"},
		"maporder":  {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, VMeshMapOrder: "xxy"},
		"tpslinear": {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, TPSLinear: 4},
		"vmesh":     {Strategy: StratVMesh, Shape: torus.New(4, 4, 2), MsgBytes: 8, VMeshRows: 3, VMeshCols: 5},
		"window":    {Strategy: StratTPS, Shape: torus.New(4, 4, 2), MsgBytes: 8, TPSCreditWindow: 2, TPSCreditBatch: 5},
		"window10":  {Strategy: StratTPS, Shape: torus.New(4, 4, 2), MsgBytes: 8, TPSCreditWindow: 9},
		// Fault schedules that parse but do not fit the shape.
		"fault node":      {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Faults: "0:999:+x:kill"},
		"fault mesh edge": {Strategy: StratAR, Shape: torus.NewMesh(4, 4, 4, true, true, false), MsgBytes: 64, Faults: "0:0:-z:kill"},
		"fault revival":   {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Faults: "0:1:+x:kill;5:1:+x:up"},
	}
	for name, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}
	// The cross-field checks bind only the strategy that reads the fields.
	for name, r := range map[string]Request{
		"vmesh fields on AR":  {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 8, VMeshRows: 3, VMeshCols: 5},
		"credit fields on AR": {Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 8, TPSCreditWindow: 2, TPSCreditBatch: 5},
		"forced vmesh":        {Strategy: StratVMesh, Shape: torus.New(4, 4, 2), MsgBytes: 8, VMeshRows: 4, VMeshCols: 8},
	} {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	shapeless := Request{Strategy: StratAR, MsgBytes: 64}
	if err := shapeless.Validate(); !errors.Is(err, torus.ErrBadShape) {
		t.Errorf("shapeless Validate = %v, want ErrBadShape", err)
	}
}

func TestParseStrategy(t *testing.T) {
	for _, in := range []string{"TPS", "tps", "Tps"} {
		s, err := ParseStrategy(in)
		if err != nil || s != StratTPS {
			t.Errorf("ParseStrategy(%q) = %q, %v; want TPS", in, s, err)
		}
	}
	if _, err := ParseStrategy("warp"); err == nil {
		t.Error("ParseStrategy accepted unknown name")
	}
}

// TestRunRequestObserve: Observe=true yields Result.Observed without the
// caller wiring a collector, the same summary through every entry point (the
// pattern runner's case is in TestPatternStrategyIsTheRouting).
func TestRunRequestObserve(t *testing.T) {
	req := Request{Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Observe: true}
	viaRequest, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	viaOptions, err := Run(context.Background(), Options{Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if viaRequest.Observed == nil {
		t.Fatal("Observe=true produced no Result.Observed")
	}
	if viaRequest.Observed.BytesByDim[0] == 0 {
		t.Error("observed summary carries no X-dimension bytes")
	}
	if !reflect.DeepEqual(viaRequest, viaOptions) {
		t.Errorf("Observe means different things to RunRequest and Run:\n%+v\n%+v", viaRequest.Observed, viaOptions.Observed)
	}
}

// TestResultWireBytes pins what the tags on Result must reproduce of the
// struct the serving layer used to copy into (resultWire): the TPS
// dimension as a letter and only for TPS, X included, and the
// strategy-specific fields absent from another strategy's document.
func TestResultWireBytes(t *testing.T) {
	tps, err := run(StratTPS, Options{Request: Request{Shape: torus.New(8, 2, 2), MsgBytes: 64, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(tps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"last_inject_units":`+strconv.FormatInt(tps.LastInjectUnits, 10)+`,"tps_linear_dim":"x","max_intermediate_backlog":`) {
		t.Errorf("TPS on X does not say so on the wire: %s", doc)
	}
	doc, err = json.Marshal(Result{Strategy: StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"strategy":"AR","shape":"4x4x2","msg_bytes":8,"time":0,"seconds":0,"peak_time":0,"percent_peak":0,` +
		`"per_node_mbs":0,"packets_injected":0,"wire_bytes":0,"payload_bytes":0,"events":0,"queued_events":0,` +
		`"mean_latency_units":0,"max_link_util":0,"mean_link_util":0,"mean_cpu_util":0,"max_cpu_util":0,"last_inject_units":0}`
	if string(doc) != want {
		t.Errorf("zero AR result on the wire:\n got %s\nwant %s", doc, want)
	}
}

func TestRequestKeyVersionPrefix(t *testing.T) {
	if k := fullRequest().Key(); !strings.HasPrefix(k, "aa5|") {
		t.Errorf("key %q lacks the aa5| version prefix", k)
	}
}

// TestRequestJSONIgnoresRetiredSelectors: a client still sending the engine
// selectors or the observation window the wire form used to carry gets the
// same Request, and so the same key and result, as one that does not.
func TestRequestJSONIgnoresRetiredSelectors(t *testing.T) {
	const plain = `{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"seed":3,"shards":2}`
	const legacy = `{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"seed":3,"shards":2,` +
		`"event_queue":"heap","coalesce":"off","sync":"bsp","observe_window":512}`
	var want, got Request
	if err := json.Unmarshal([]byte(plain), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(legacy), &got); err != nil {
		t.Fatalf("request with retired selectors rejected: %v", err)
	}
	if got != want || got.Key() != want.Key() {
		t.Errorf("retired selectors changed the request:\n got  %+v %s\n want %+v %s", got, got.Key(), want, want.Key())
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

// FuzzRequestJSON drives the wire form the way aaserve does: any bytes that
// decode to a Request must validate and key without panicking, and their
// canonical encoding must decode back to the same Request, key and validity.
func FuzzRequestJSON(f *testing.F) {
	full, err := json.Marshal(fullRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"strategy":"tps","shape":"8x4x2M","msg_bytes":64,"tps_linear":"Y","vmesh_map_order":"XZY"}`))
	f.Add([]byte(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"coalesce":"off","sync":"bsp","pace_fraction":1e-9}`))
	f.Add([]byte(`{"strategy":"nope","shape":"","msg_bytes":-1,"faults":"0:5:+x:kill;;"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		valid := req.Validate() == nil
		key := req.Key()
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal %+v: %v", req, err)
		}
		var back Request
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("canonical form %s does not decode: %v", wire, err)
		}
		if back != req || back.Key() != key {
			t.Fatalf("round trip drifted:\n in   %+v %s\n out  %+v %s\n wire %s", req, key, back, back.Key(), wire)
		}
		if (back.Validate() == nil) != valid {
			t.Fatalf("validity changed across the round trip of %s", wire)
		}
	})
}

// FuzzRequestKey holds Key to the identity the serving cache relies on, over
// two decoded bodies: requests that differ only in Shards share a key (the
// cache and the serving pool's one-engine rule both lean on that), and valid
// requests that differ in any other field do not.
func FuzzRequestKey(f *testing.F) {
	full, err := json.Marshal(fullRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full, full)
	f.Add([]byte(`{"strategy":"AR","shape":"8x4x4","msg_bytes":480,"seed":1}`),
		[]byte(`{"strategy":"ar","shape":"8X4X4","msg_bytes":480,"seed":1,"shards":2}`))
	f.Add([]byte(`{"strategy":"AR","shape":"8x8x1","msg_bytes":64}`), []byte(`{"strategy":"AR","shape":"8x1x8","msg_bytes":64}`))
	f.Add([]byte(`{"strategy":"AR","shape":"8x8x2M","msg_bytes":64}`), []byte(`{"strategy":"AR","shape":"8x8x2","msg_bytes":64}`))
	f.Add([]byte(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"pace_fraction":-0}`),
		[]byte(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"pace_fraction":0}`))
	f.Add([]byte(`{"strategy":"TPS","shape":"4x4x2","msg_bytes":8,"faults":"0:5:+x:kill"}`),
		[]byte(`{"strategy":"TPS","shape":"4x4x2","msg_bytes":8,"faults":"0:5:+x:kill","tps_linear":"x"}`))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		var a, b Request
		if json.Unmarshal(da, &a) != nil || json.Unmarshal(db, &b) != nil {
			return
		}
		resharded := a
		resharded.Shards = b.Shards
		if resharded.Key() != a.Key() {
			t.Fatalf("shards %d and %d key %+v differently:\n%s\n%s", a.Shards, b.Shards, a, a.Key(), resharded.Key())
		}
		if resharded == b {
			if a.Key() != b.Key() {
				t.Fatalf("requests differing only in Shards have different keys:\n%+v %s\n%+v %s", a, a.Key(), b, b.Key())
			}
			return
		}
		if a.Validate() == nil && b.Validate() == nil && a.Key() == b.Key() {
			t.Fatalf("distinct valid requests share key %s:\n%+v\n%+v", a.Key(), a, b)
		}
	})
}

// TestFaultClockPerPhase pins what Request.Faults says about phases: every
// strategy is one network run, so one link downed at t=T for good is dead for
// Time-T, VMesh's gated column leg included.
func TestFaultClockPerPhase(t *testing.T) {
	const down = 200
	for _, strat := range []Strategy{StratTPS, StratXYZ, StratVMesh} {
		res, err := run(strat, Options{Request: Request{Shape: torus.New(4, 4, 2), MsgBytes: 64, Seed: 1,
			Check: true, Faults: strconv.Itoa(down) + ":5:+x:down"}})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if want := res.Time - down; res.DeadLinkTicks != want {
			t.Errorf("%s: DeadLinkTicks %d, want Time-%d = %d (phase times %v)",
				strat, res.DeadLinkTicks, down, want, res.PhaseTimes)
		}
	}
}
