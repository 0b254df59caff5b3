package core

import (
	"testing"
	"testing/quick"
)

func TestParsePath(t *testing.T) {
	tests := []struct {
		give string
		want Path
	}{
		{give: "a/b/c", want: Path{"a", "b", "c"}},
		{give: "/a/b/c", want: Path{"a", "b", "c"}},
		{give: "a", want: Path{"a"}},
		{give: "", want: Path{}},
		{give: "/", want: Path{}},
		{give: "//a//b/", want: Path{"a", "b"}},
		{give: "a/./b", want: Path{"a", ".", "b"}},
		{give: "../x", want: Path{"..", "x"}},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got := ParsePath(tt.give)
			if !got.Equal(tt.want) {
				t.Fatalf("ParsePath(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

// TestParsePathAllocatesOnce: the Path itself is ParsePath's only
// allocation; the components are cut out of the input string.
func TestParsePathAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = ParsePath("a/b/c") }); n != 1 {
		t.Fatalf("ParsePath(\"a/b/c\") makes %v allocations, want 1", n)
	}
}

func TestSplitPathString(t *testing.T) {
	tests := []struct {
		give    string
		wantAbs bool
		want    Path
	}{
		{give: "/a/b", wantAbs: true, want: Path{"a", "b"}},
		{give: "a/b", wantAbs: false, want: Path{"a", "b"}},
		{give: "/", wantAbs: true, want: Path{}},
		{give: "", wantAbs: false, want: Path{}},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			abs, p := SplitPathString(tt.give)
			if abs != tt.wantAbs || !p.Equal(tt.want) {
				t.Fatalf("SplitPathString(%q) = (%v, %v), want (%v, %v)",
					tt.give, abs, p, tt.wantAbs, tt.want)
			}
		})
	}
}

func TestPathString(t *testing.T) {
	tests := []struct {
		give Path
		want string
	}{
		{give: Path{"a", "b"}, want: "a/b"},
		{give: Path{"x"}, want: "x"},
		{give: Path{}, want: ""},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Path(%v).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestPathJoinAppendClone(t *testing.T) {
	p := PathOf("a", "b")
	q := p.Join(PathOf("c"))
	if !q.Equal(Path{"a", "b", "c"}) {
		t.Fatalf("Join = %v", q)
	}
	r := p.Append("d", "e")
	if !r.Equal(Path{"a", "b", "d", "e"}) {
		t.Fatalf("Append = %v", r)
	}
	c := p.Clone()
	c[0] = "z"
	if p[0] != "a" {
		t.Fatal("Clone aliases the original")
	}
}

func TestPathIsValid(t *testing.T) {
	tests := []struct {
		give Path
		want bool
	}{
		{give: Path{"a"}, want: true},
		{give: Path{"a", "b"}, want: true},
		{give: Path{}, want: false},
		{give: nil, want: false},
		{give: Path{"a", ""}, want: false},
	}
	for _, tt := range tests {
		if got := tt.give.IsValid(); got != tt.want {
			t.Errorf("Path(%v).IsValid() = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestPathHasPrefix(t *testing.T) {
	p := PathOf("a", "b", "c")
	tests := []struct {
		give Path
		want bool
	}{
		{give: Path{"a"}, want: true},
		{give: Path{"a", "b"}, want: true},
		{give: Path{"a", "b", "c"}, want: true},
		{give: Path{"a", "b", "c", "d"}, want: false},
		{give: Path{"b"}, want: false},
		{give: nil, want: true},
	}
	for _, tt := range tests {
		if got := p.HasPrefix(tt.give); got != tt.want {
			t.Errorf("HasPrefix(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

// Property: parsing the rendering of a valid path is the identity, as long as
// no component contains the separator.
func TestPathStringParseRoundTrip(t *testing.T) {
	f := func(parts []string) bool {
		p := make(Path, 0, len(parts))
		for _, s := range parts {
			if s == "" {
				s = "x"
			}
			clean := make([]rune, 0, len(s))
			for _, r := range s {
				if r != '/' {
					clean = append(clean, r)
				}
			}
			if len(clean) == 0 {
				clean = []rune{'x'}
			}
			p = append(p, Name(clean))
		}
		return ParsePath(p.String()).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
