package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestResultGolden pins the result bytes of two small sweeps, which
// between them give every PointJSON field a non-trivial value (the
// bitcoin sweep is stacked, the XCode one has DRAM), so a unit slip in
// toPointJSON or in the physics behind it changes a committed byte.
// scripts/smoke_service.sh checks the daemon's HTTP answer to the
// bitcoin request against the same golden. After an intended change,
// regenerate each golden from the repository root with
//
//	go run ./cmd/asiccloudd -once -request internal/service/testdata/result/<app>.request.json -o internal/service/testdata/result/<app>.json
//
// and commit it with the change that moved it.
func TestResultGolden(t *testing.T) {
	for _, app := range []string{"bitcoin", "xcode"} {
		t.Run(app, func(t *testing.T) {
			dir := filepath.Join("testdata", "result")
			body, err := os.ReadFile(filepath.Join(dir, app+".request.json"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, app+".json"))
			if err != nil {
				t.Fatal(err)
			}
			req, err := DecodeRequest(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decode %s: %v", body, err)
			}
			got, err := RunOnce(context.Background(), req, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(i-120, 0)
				t.Errorf("result differs from %s.json at byte %d:\ngot:  ...%s\nwant: ...%s",
					app, i, got[lo:min(i+120, len(got))], want[lo:min(i+120, len(want))])
			}
		})
	}
}
