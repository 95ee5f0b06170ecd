package runspec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pmp/internal/sim"
)

// populate gives every pointer in v a target and every slice one
// element, and sets every leaf to a non-zero value. Bools stay false so
// that flipping one still sets a non-zero value.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// leaf is one settable scalar inside a spec, named by its field path.
type leaf struct {
	path string
	v    reflect.Value
}

// leaves lists every scalar reachable from v.
func leaves(path string, v reflect.Value, out []leaf) []leaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = leaves(path+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = leaves(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	case reflect.Pointer:
		out = leaves(path, v.Elem(), out)
	default:
		out = append(out, leaf{path, v})
	}
	return out
}

// bump sets a leaf to a different non-zero value.
func bump(t *testing.T, l leaf) {
	switch v := l.v; v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	default:
		t.Fatalf("%s: leaf of kind %s has no test mutation", l.path, v.Kind())
	}
}

// classicUnderLevels reports whether path is a classic hierarchy field,
// which the simulator ignores once Config.Levels is set.
func classicUnderLevels(path string) bool {
	for _, f := range []string{"L1D", "L2C", "LLC"} {
		p := ".Config." + f
		if path == p || strings.HasPrefix(path, p+".") {
			return true
		}
	}
	return false
}

// Every leaf of a fully populated spec feeds the ID: changing any one
// gives a new ID, distinct from every other single-field change. The
// walk is by reflection, so fields added later are covered with no
// edit here. The classic cache fields under an explicit Levels are the
// one exception: the simulator ignores them, and so does the ID.
func TestIDCoversEveryField(t *testing.T) {
	for _, explicit := range []bool{true, false} {
		var rs RunSpec
		populate(reflect.ValueOf(&rs).Elem())
		if !explicit {
			rs.Config.Levels = nil
		}
		base := rs.ID()
		seen := map[string]string{base: "(unchanged)"}
		for _, l := range leaves("", reflect.ValueOf(&rs).Elem(), nil) {
			old := reflect.New(l.v.Type()).Elem()
			old.Set(l.v)
			bump(t, l)
			id := rs.ID()
			l.v.Set(old)

			if explicit && classicUnderLevels(l.path) {
				if id != base {
					t.Errorf("levels=%v: %s changed the ID, but the simulator ignores it", explicit, l.path)
				}
				continue
			}
			if prev, ok := seen[id]; ok {
				t.Errorf("levels=%v: changing %s gives the same ID as %s", explicit, l.path, prev)
			}
			seen[id] = l.path
		}
		if rs.ID() != base {
			t.Fatalf("levels=%v: ID not restored after the walk", explicit)
		}
	}
}

// An explicit Levels list equal to the classic hierarchy describes the
// same machine, so it gets the classic ID; a different one does not.
func TestIDResolvesClassicHierarchy(t *testing.T) {
	rs := validSpec()
	explicit := rs
	c := rs.Config
	explicit.Config.Levels = []sim.LevelSpec{
		{Cache: c.L1D},
		{Cache: c.L2C},
		{Cache: c.LLC, Shared: true, Inclusive: true},
	}
	if explicit.ID() != rs.ID() {
		t.Error("explicit classic Levels changed the ID")
	}
	explicit.Config.Levels[2].Inclusive = false
	if explicit.ID() == rs.ID() {
		t.Error("a non-inclusive LLC kept the inclusive machine's ID")
	}
}

// The encoding is pinned: an ID that changes here re-keys every results
// store, so it must be deliberate (bump idVersion and regenerate the
// canonical store digest, docs/sweep.md).
func TestIDPinned(t *testing.T) {
	if got, want := validSpec().ID(), "e2566e2943d1fab2"; got != want {
		t.Errorf("validSpec().ID() = %s, want %s", got, want)
	}
}

// The coordinator hashes every submission, so ID must stay cheap.
func TestIDAllocs(t *testing.T) {
	rs := validSpec()
	rs.Placements = []Placement{{Level: 2, Variant: pmpVariant("bingo@llc")}}
	if n := testing.AllocsPerRun(100, func() { _ = rs.ID() }); n > 4 {
		t.Errorf("RunSpec.ID allocates %.0f times per call, want at most 4", n)
	}
}

// FuzzRunSpecID decodes arbitrary bytes as a wire spec, the way the
// coordinator's submit handler does. Every spec that passes Validate
// must hash without panicking and keep its ID across a JSON round trip.
func FuzzRunSpecID(f *testing.F) {
	placed := validSpec()
	placed.Placements = []Placement{{Level: 2, Variant: VariantSpec{Name: "bingo", Registry: "bingo"}}}
	mix := validSpec()
	mix.Cores = append(mix.Cores, CoreSpec{Trace: TraceRef{Name: "t1", File: "t1.pmpt"}, Variant: pmpVariant("pmp")})
	mix.Replay = true
	mix.Config.Measure = 5_000
	mix.Config.Levels = []sim.LevelSpec{{Cache: mix.Config.L1D}, {Cache: mix.Config.LLC, Shared: true}}
	for _, rs := range []RunSpec{validSpec(), placed, mix} {
		b, err := json.Marshal(rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs RunSpec
		if json.Unmarshal(data, &rs) != nil || rs.Validate() != nil {
			return
		}
		id := rs.ID()
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back RunSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("marshaled spec does not decode: %v", err)
		}
		if back.ID() != id {
			t.Errorf("ID %s became %s across a JSON round trip of %s", id, back.ID(), b)
		}
	})
}
