package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"routeconv/internal/topology"
)

// canonVersion tags the canonical encoding itself. Bump it when the encoding
// scheme (not the Config schema — field changes show up on their own) is
// altered, so cached sweep results keyed on the old form are invalidated.
const canonVersion = "core.Config/v1"

// CanonicalString renders the fully-resolved configuration as one
// deterministic, human-readable line: every field in declaration order,
// recursively, with a custom Topology reduced to its sorted edge list. Two
// configs produce the same string exactly when they describe the same
// experiment, so the string (hashed) keys the sweep subsystem's result
// cache.
//
// Configurations with a Factory override cannot be canonicalized — a
// function pointer has no stable content — and return an error; such
// experiments are simply uncacheable.
//
// The config is resolved and validated (on a copy) before encoding, so a
// config carrying "ba:n=100,m=2" and one carrying the identical pre-built
// graph canonicalize — and therefore cache — the same, as do a default
// config and one carrying its explicit "failpath @FailAt" script. An
// invalid config has no canonical form.
func (c *Config) CanonicalString() (string, error) {
	r := *c
	if err := r.resolve(); err != nil {
		return "", fmt.Errorf("core: canonicalize config: %w", err)
	}
	var sb strings.Builder
	sb.WriteString(canonVersion)
	sb.WriteByte(';')
	if err := writeCanonical(&sb, reflect.ValueOf(r)); err != nil {
		return "", fmt.Errorf("core: canonicalize config: %w", err)
	}
	return sb.String(), nil
}

// graphType is special-cased: Graph's fields are unexported, and its
// identity for an experiment is exactly its node count and edge set.
var graphType = reflect.TypeOf((*topology.Graph)(nil))

// configType identifies the top-level Config struct, whose Shards field is
// excluded from the canonical form: sharding is an execution strategy with
// bit-for-bit identical results, so cache keys must not depend on it.
var configType = reflect.TypeOf(Config{})

// writeCanonical appends v's canonical form to sb. It handles exactly the
// kinds that appear in Config (and errors on anything else, so a future
// field of an unsupported kind fails loudly instead of silently aliasing
// distinct configs).
func writeCanonical(sb *strings.Builder, v reflect.Value) error {
	if v.Type() == graphType {
		if v.IsNil() {
			sb.WriteString("nil")
			return nil
		}
		g := v.Interface().(*topology.Graph)
		fmt.Fprintf(sb, "graph(n=%d,edges=[", g.Len())
		for i, e := range g.Edges() { // Edges() is sorted
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%d-%d", e.A, e.B)
		}
		sb.WriteString("])")
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		sb.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sb.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		sb.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		sb.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		sb.WriteString(strconv.Quote(v.String()))
	case reflect.Slice:
		if v.IsNil() {
			sb.WriteString("nil")
			return nil
		}
		sb.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if err := writeCanonical(sb, v.Index(i)); err != nil {
				return err
			}
		}
		sb.WriteByte(']')
	case reflect.Ptr:
		if v.IsNil() {
			sb.WriteString("nil")
			return nil
		}
		return writeCanonical(sb, v.Elem())
	case reflect.Struct:
		t := v.Type()
		sb.WriteString(t.Name())
		sb.WriteByte('{')
		wrote := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				return fmt.Errorf("unexported field %s.%s", t.Name(), f.Name)
			}
			if t == configType && f.Name == "Shards" {
				continue
			}
			if wrote > 0 {
				sb.WriteByte(' ')
			}
			wrote++
			sb.WriteString(f.Name)
			sb.WriteByte(':')
			if err := writeCanonical(sb, v.Field(i)); err != nil {
				return err
			}
		}
		sb.WriteByte('}')
	case reflect.Func:
		if !v.IsNil() {
			return fmt.Errorf("function field (Factory override) is not canonicalizable")
		}
		sb.WriteString("nil")
	default:
		return fmt.Errorf("unsupported kind %s", v.Kind())
	}
	return nil
}
