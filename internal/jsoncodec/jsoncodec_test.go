package jsoncodec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/dwarfs/montecarlo"
	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/fleet"
	"repro/internal/jsoncodec"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func TestDecodeStrict(t *testing.T) {
	type doc struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	cases := []struct {
		name, src, want string
	}{
		{"trailing-brace", "{\"name\": \"x\"}\n}", "doc.json:2:2: trailing data"},
		{"trailing-bracket", "{\"name\": \"x\"} ]", "doc.json:1:16: trailing data"},
		{"trailing-value", "{\"name\": \"x\"}{}", "doc.json:1:15: trailing data"},
		{"unknown-field", "{\n  \"name\": \"x\",\n  \"nn\": 1\n}", `doc.json:3:4: json: unknown field "nn"`},
		{"type", "{\"n\": \"1\"}", "doc.json:1:"},
		{"syntax", "{\"name\": x}", "doc.json:1:"},
		{"empty", "", "doc.json: EOF"},
	}
	for _, c := range cases {
		var d doc
		err := jsoncodec.DecodeStrict([]byte(c.src), &d, "doc.json")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want it to contain %q", c.name, err, c.want)
		}
	}
	var d doc
	if err := jsoncodec.DecodeStrict([]byte(" {\"name\": \"x\", \"n\": 2} \n\t"), &d, "doc.json"); err != nil || d != (doc{"x", 2}) {
		t.Errorf("clean document with surrounding whitespace: %+v, %v", d, err)
	}
	// Without a source the error is returned bare, for an outer call to
	// position against the whole document.
	err := jsoncodec.DecodeStrict([]byte(`{"name": "x"}}`), &d, "")
	if err == nil || err.Error() != "trailing data after the JSON value" {
		t.Errorf("unpositioned trailing error = %v", err)
	}
}

// Every strict entry point rejects a valid document followed by a
// stray '}' or ']' or garbage. A decoder's More reports false in front
// of a closing delimiter, so a More-based trailing check lets the first
// two through.
func TestEntryPointsRejectTrailingData(t *testing.T) {
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wl, err := json.Marshal(montecarlo.WorkloadXL())
	if err != nil {
		t.Fatal(err)
	}
	coord := fleet.New(engine.New(platform.NewPurley().Socket(0), 1), fleet.Options{})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	entries := []struct {
		name  string
		valid []byte
		parse func([]byte) error
	}{
		{"scenario.ParseSpec", read("../../specs/beyond-dram.json"), func(b []byte) error {
			_, err := scenario.ParseSpec(b, "beyond-dram.json")
			return err
		}},
		{"scenario.Spec.UnmarshalJSON", read("../../specs/beyond-dram.json"), func(b []byte) error {
			var sp scenario.Spec
			return sp.UnmarshalJSON(b)
		}},
		{"traffic.ParseSpec", read("../../traffic/bursty-two-class.json"), func(b []byte) error {
			_, err := traffic.ParseSpec(b, "bursty-two-class.json")
			return err
		}},
		{"faultline.ParsePlan", read("../../faultplans/chaos-1pct.json"), func(b []byte) error {
			_, err := faultline.ParsePlan(b)
			return err
		}},
		{"workload.Workload.UnmarshalJSON", wl, func(b []byte) error {
			var w workload.Workload
			return w.UnmarshalJSON(b)
		}},
		{"fleet join body", []byte(`{"name": "w"}`), func(b []byte) error {
			resp, err := http.Post(ts.URL+"/fleet/v1/join", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return errors.New(resp.Status)
			}
			return nil
		}},
	}
	for _, e := range entries {
		if err := e.parse(e.valid); err != nil {
			t.Fatalf("%s rejects its valid document: %v", e.name, err)
		}
		for _, tail := range []string{"}", "]", " garbage"} {
			doc := append(append([]byte(nil), e.valid...), tail...)
			if err := e.parse(doc); err == nil {
				t.Errorf("%s accepts a document with %q appended", e.name, tail)
			}
		}
	}
}
