package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestDecodeRequest checks the one strict decoder both front ends use:
// one JSON value, no unknown field, and nothing after it but
// whitespace.
func TestDecodeRequest(t *testing.T) {
	for _, body := range []string{
		`{"app":"bitcoin"}`,
		" \t\r\n{\"app\":\"bitcoin\"}\n",
		`{"app":"bitcoin"}` + "\n\n  \t",
	} {
		req, err := DecodeRequest(strings.NewReader(body))
		if err != nil || req.App != "bitcoin" {
			t.Errorf("%q: got %+v, %v; want the bitcoin request", body, req, err)
		}
	}
	for name, body := range map[string]string{
		"trailing value":   `{"app":"bitcoin"} {"app":"xcode"}`,
		"trailing scalar":  `{"app":"bitcoin"} 1`,
		"trailing garbage": `{"app":"bitcoin"}x`,
		"trailing bracket": `{"app":"bitcoin"}]`,
		"unknown field":    `{"app":"bitcoin","bogus":1}`,
		"truncated":        `{"app":"bitc`,
		"empty":            ``,
	} {
		if req, err := DecodeRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: %q decoded to %+v, want an error", name, body, req)
		}
	}
}

// FuzzSweepRequest feeds bytes through DecodeRequest and Canonicalize,
// the path every POST /v1/sweeps body and -request file takes. Nothing
// may panic. An accepted request has a 64-hex-digit hash and plans. And
// the request re-encoded by json.Marshal decodes and canonicalizes to
// the same hash, so the hash follows what a request means, not how it
// was spelled. The corpus is in testdata/fuzz/FuzzSweepRequest.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		can, err := Canonicalize(req)
		if err != nil {
			return
		}
		h := can.Hash()
		if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
			t.Fatalf("hash %q is not 64 lowercase hex digits", h)
		}
		if _, _, err := can.Plan(); err != nil {
			t.Fatalf("accepted request does not plan: %v", err)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		req2, err := DecodeRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", again, err)
		}
		can2, err := Canonicalize(req2)
		if err != nil {
			t.Fatalf("re-encoded request %s does not canonicalize: %v", again, err)
		}
		if h2 := can2.Hash(); h2 != h {
			t.Fatalf("re-encoded request %s hashes to %s, the original to %s", again, h2, h)
		}
	})
}
