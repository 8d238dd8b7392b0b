package main

import (
	"bytes"
	"reflect"
	"testing"

	"asiccloud/internal/service"
)

func TestSessionIsDeterministicForASeed(t *testing.T) {
	a, err := newSession(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSession(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Bodies, b.Bodies) || !reflect.DeepEqual(a.Clients, b.Clients) {
		t.Fatal("two sessions from seed 7 differ")
	}
	c, err := newSession(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Bodies, c.Bodies) && reflect.DeepEqual(a.Clients, c.Clients) {
		t.Fatal("seeds 7 and 8 drew the same session")
	}
}

func TestSessionShape(t *testing.T) {
	s, err := newSession(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Distinct) != studyDistinct || len(s.Bodies) != studyDistinct {
		t.Fatalf("%d distinct requests, want %d", len(s.Distinct), studyDistinct)
	}
	hashes := make(map[string]bool)
	for i := range s.Distinct {
		can, err := service.Canonicalize(&s.Distinct[i])
		if err != nil {
			t.Fatalf("request %d does not canonicalize: %v", i, err)
		}
		hashes[can.Hash()] = true
		for j := 0; j < i; j++ {
			if bytes.Equal(s.Bodies[i], s.Bodies[j]) {
				t.Fatalf("requests %d and %d are the same", i, j)
			}
		}
	}
	if len(hashes) != studyDistinct {
		t.Fatalf("%d distinct request hashes, want %d", len(hashes), studyDistinct)
	}
	owner := make(map[int]int)
	for c, list := range s.Clients {
		apps := make(map[string]int)
		counted := make(map[int]bool)
		for _, k := range list {
			if !counted[k] {
				counted[k] = true
				apps[s.Distinct[k].App]++
			}
		}
		for _, app := range studyApps {
			if want := app.distinct / studyClients; apps[app.name] != want {
				t.Fatalf("client %d sends %d distinct %s requests, want %d", c, apps[app.name], app.name, want)
			}
		}
		if len(list) != studyDistinct/studyClients+studyRepeats {
			t.Fatalf("client %d sends %d requests", c, len(list))
		}
		seen := make(map[int]bool)
		repeats := 0
		for pos, k := range list {
			if o, ok := owner[k]; ok && o != c {
				t.Fatalf("request %d is sent by clients %d and %d", k, o, c)
			}
			owner[k] = c
			if seen[k] {
				repeats++
				if pos == 0 {
					t.Fatalf("client %d starts with a repeat", c)
				}
			}
			seen[k] = true
		}
		if repeats != studyRepeats {
			t.Fatalf("client %d repeats %d requests, want %d", c, repeats, studyRepeats)
		}
	}
}
