package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestDesignGoldens pins `asiccloud design -app <app>` byte for byte
// against testdata/design-<app>.txt for the three swept applications.
// An intended change to the model or the report regenerates a golden
// with `go run ./cmd/asiccloud design -app <app> >
// cmd/asiccloud/testdata/design-<app>.txt`, committed with the change.
func TestDesignGoldens(t *testing.T) {
	for _, app := range []string{"bitcoin", "litecoin", "xcode"} {
		t.Run(app, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "design-"+app+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := cmdDesign(context.Background(), []string{"-app", app}, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("design -app %s differs from its golden:\n--- got\n%s--- want\n%s", app, got.Bytes(), want)
			}
		})
	}
}
