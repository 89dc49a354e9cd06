package message

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/wire.golden from the current codec
// (make wire-golden). A codec edit that moves bytes must regenerate the
// file in the same change and list the affected types in CHANGES.md;
// nobody edits the hex by hand.
var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current codec")

const goldenPath = "testdata/wire.golden"

const goldenHeader = `# Byte-level wire fixture: one "TYPE-NAME <hex of Marshal>" line per
# entry of allMessages() followed by viewChangeSeeds(), in order. A
# trailing "malformed" marks an entry whose bytes Unmarshal must reject
# with ErrMalformed (a view or order beyond the timeline field width).
# Regenerate with "make wire-golden"; never edit by hand.
`

// goldenCorpus is the message set the fixture pins, in file order.
func goldenCorpus() []Message { return append(allMessages(), viewChangeSeeds()...) }

type goldenLine struct {
	name      string
	raw       []byte
	malformed bool
}

func readGolden(tb testing.TB) []goldenLine {
	tb.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	var lines []goldenLine
	for _, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		if len(f) == 0 || strings.HasPrefix(l, "#") {
			continue
		}
		if len(f) < 2 || len(f) > 3 || (len(f) == 3 && f[2] != "malformed") {
			tb.Fatalf("%s: bad line %q", goldenPath, l)
		}
		raw, err := hex.DecodeString(f[1])
		if err != nil {
			tb.Fatalf("%s: %s: %v", goldenPath, f[0], err)
		}
		lines = append(lines, goldenLine{name: f[0], raw: raw, malformed: len(f) == 3})
	}
	return lines
}

func writeGolden(t *testing.T, corpus []Message) {
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, m := range corpus {
		raw := Marshal(m)
		fmt.Fprintf(&b, "%s %x", m.MsgType(), raw)
		if _, err := Unmarshal(raw); err != nil {
			b.WriteString(" malformed")
		}
		b.WriteByte('\n')
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWireGolden pins the wire bytes of every message type against a
// committed fixture, in both directions: Marshal of the corpus entry is
// the recorded line, and Unmarshal of the recorded line is the corpus
// entry. Round-trip tests cannot see a layout change that encoder and
// decoder make together; this one can.
func TestWireGolden(t *testing.T) {
	corpus := goldenCorpus()
	if *updateGolden {
		writeGolden(t, corpus)
	}
	lines := readGolden(t)
	if len(lines) != len(corpus) {
		t.Fatalf("%s has %d entries, the corpus %d", goldenPath, len(lines), len(corpus))
	}
	for i, m := range corpus {
		l := lines[i]
		if name := m.MsgType().String(); l.name != name {
			t.Fatalf("entry %d: golden is a %s, corpus a %s", i, l.name, name)
		}
		if raw := Marshal(m); !bytes.Equal(raw, l.raw) {
			t.Errorf("entry %d (%s): Marshal moved bytes\n got  %x\n want %x", i, l.name, raw, l.raw)
		}
		got, err := Unmarshal(l.raw)
		if l.malformed {
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("entry %d (%s): Unmarshal err = %v, want ErrMalformed", i, l.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("entry %d (%s): Unmarshal: %v", i, l.name, err)
			continue
		}
		if p, ok := m.(*Prepare); ok && len(p.Requests) == 0 {
			p.Requests = nil // an empty list decodes as nil
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("entry %d (%s): decoded\n got  %#v\n want %#v", i, l.name, got, m)
		}
	}
}
