package rpsl

import (
	"errors"
	"io"
	"strings"
	"testing"
)

const messyDump = `inetnum:        192.0.2.0 - 192.0.2.255
netname:        GOOD-ONE
this line has no colon
status:         ASSIGNED PA

   continuation with no attribute
@@@@ garbage
~~~~ more garbage

inetnum:        198.51.100.0 - 198.51.100.255
netname:        GOOD-TWO
`

func TestOnBadLineSkips(t *testing.T) {
	var bad []int
	s, n := keepAll([]byte(messyDump))
	s.OnBadLine = func(line int, err error) error {
		bad = append(bad, line)
		return nil
	}
	objs, err := objects(s, n)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	var keys []string
	for _, o := range objs {
		keys = append(keys, o.Attributes[0].Value)
	}
	if len(keys) != 2 || keys[0] != "192.0.2.0 - 192.0.2.255" || keys[1] != "198.51.100.0 - 198.51.100.255" {
		t.Fatalf("keys = %v", keys)
	}
	// Line 3 (no colon), 6 (dangling continuation), 7, 8 (garbage).
	if len(bad) != 4 {
		t.Fatalf("bad lines = %v", bad)
	}
	if bad[0] != 3 || bad[1] != 6 || bad[2] != 7 || bad[3] != 8 {
		t.Fatalf("bad lines = %v", bad)
	}
}

func TestOnBadLineAllSkippedObjectDoesNotEOF(t *testing.T) {
	// An object whose every line is garbage must not terminate the stream:
	// the reader has to scan on to the following object.
	dump := "@@@@\n!!!!\n\ninetnum: 192.0.2.0 - 192.0.2.255\n"
	s, _ := keepAll([]byte(dump))
	s.OnBadLine = func(int, error) error { return nil }
	o, err := s.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if string(o.Key()) != "192.0.2.0 - 192.0.2.255" {
		t.Fatalf("key = %q", o.Key())
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestOnBadLineAbort(t *testing.T) {
	sentinel := errors.New("too much")
	s, _ := keepAll([]byte(messyDump))
	s.OnBadLine = func(int, error) error { return sentinel }
	_, err := s.Next()
	if err != sentinel {
		t.Fatalf("want sentinel, got %v", err)
	}
}

func TestStrictStillFailsFast(t *testing.T) {
	s, _ := keepAll([]byte(messyDump))
	_, err := s.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("strict err = %v", err)
	}
}
