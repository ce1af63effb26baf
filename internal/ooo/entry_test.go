package ooo

import (
	"reflect"
	"testing"
)

// TestEntriesHoldNoPointers pins Entry and fetchSlot as pointer-free. The
// cycle loop clears and copies them whole on every dispatch, retire and
// fetch; one pointer-bearing field (a slice, say) would turn each of those
// into a copy with GC write barriers. Per-instruction buffers belong in the
// Core's per-slot side tables instead.
func TestEntriesHoldNoPointers(t *testing.T) {
	for _, v := range []any{Entry{}, fetchSlot{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ); path != "" {
			t.Errorf("%s holds a pointer at %s%s", typ, typ.Name(), path)
		}
	}
}

// pointerPath returns the field path to the first pointer-bearing part of
// typ, "" if it has none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return " (" + typ.Kind().String() + ")"
	}
	return ""
}
