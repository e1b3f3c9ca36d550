package stats

import (
	"strings"
	"testing"
)

func TestTableSetGetString(t *testing.T) {
	tb := NewTable("title", "us", "size", []string{"a", "b"}, []string{"x", "y"})
	tb.Set("a", "y", 1.5)
	tb.Set("b", "x", 2)
	if tb.Get("a", "y") != 1.5 || tb.Get("b", "x") != 2 {
		t.Fatal("set/get roundtrip failed")
	}
	out := tb.String()
	for _, want := range []string{"title", "[us]", "size", "a", "b", "x", "y", "1.50", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableUnknownLabelPanics(t *testing.T) {
	tb := NewTable("t", "", "r", []string{"a"}, []string{"x"})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown label should panic")
		}
	}()
	tb.Set("nope", "x", 1)
}
