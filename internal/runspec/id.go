package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strconv"
)

// idVersion prefixes the canonical encoding. Changing the encoding
// means changing the version, so IDs from two encodings never collide.
const idVersion = "runspec/v1|"

// ID returns the run's job identity: the first 8 bytes, in hex, of the
// SHA-256 of the spec's canonical encoding. The sweep's dedup table,
// the results store and the distributed coordinator all key on it, and
// nothing else computes a job ID.
//
// The encoding walks the whole spec by reflection: struct fields by Go
// name in declaration order, zero values and empty slices left out,
// pointers followed, numbers written by strconv. A field added later
// at its zero value therefore keeps every existing ID. The config is
// taken over its resolved hierarchy (sim.Config.Resolved), so an
// explicit Levels list equal to the classic machine gets the classic
// ID.
func (rs RunSpec) ID() string {
	rs.Config = rs.Config.Resolved()
	buf := make([]byte, 0, 2048)
	buf = append(buf, idVersion...)
	buf = appendCanonical(buf, reflect.ValueOf(&rs).Elem())
	sum := sha256.Sum256(buf)
	var id [16]byte
	hex.Encode(id[:], sum[:8])
	return string(id[:])
}

// appendCanonical appends the canonical encoding of v to buf. A kind
// with no encoding (map, interface, func, chan) panics: a spec field of
// that kind has to choose its encoding before it can be hashed.
func appendCanonical(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		buf = append(buf, '{')
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
				continue
			}
			buf = append(buf, v.Type().Field(i).Name...)
			buf = append(buf, '=')
			buf = appendCanonical(buf, f)
			buf = append(buf, ';')
		}
		return append(buf, '}')
	case reflect.Slice, reflect.Array:
		buf = append(buf, '[')
		for i := 0; i < v.Len(); i++ {
			buf = appendCanonical(buf, v.Index(i))
			buf = append(buf, ';')
		}
		return append(buf, ']')
	case reflect.Pointer:
		return appendCanonical(buf, v.Elem())
	case reflect.String:
		return strconv.AppendQuote(buf, v.String())
	case reflect.Bool:
		return strconv.AppendBool(buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(buf, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	}
	panic("runspec: no canonical encoding for kind " + v.Kind().String())
}
