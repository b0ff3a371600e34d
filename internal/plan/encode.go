package plan

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"oassis/internal/assign"
	"oassis/internal/vocab"
)

// irChunk is how many encoded bytes writeIR gathers before it hands them
// to its writer; its buffer starts small so a small plan stays cheap.
const irChunk = 32 << 10

// writeIR streams the canonical serialization of the IR to w: the bytes
// json.MarshalIndent(ir, "", "  ") writes for the JSON object
//
//	{"query", "support", "select_all", "more", "domain", "policy",
//	 "substrate", "stop", "vars": [{"name", "mult", "kind", "anchors"}],
//	 "sat": [{"s", "r", "o"}], "valid_base": [[name, ...], ...]}
//
// in that field order, with every term resolved to its name, "anchors"
// left out when empty and empty lists written as []. Policy is always
// "paper-order", the engine's one question order, and stop is always
// "threshold", the paper's ask-until-settled rule (an early stop is a run
// option): both stay in the IR only so fingerprints, and with them the
// plan bindings of existing stores, do not move. A support that is NaN or
// infinite has no JSON form and is an error, as it is for encoding/json.
func writeIR(w io.Writer, p *Plan) error {
	if math.IsNaN(p.Support) || math.IsInf(p.Support, 0) {
		return fmt.Errorf("plan: support %v has no JSON form", p.Support)
	}
	e := irEncoder{w: w, b: make([]byte, 0, 4<<10)}
	e.b = append(e.b, '{')
	e.key(1, "query", true)
	e.b = appendString(e.b, p.QueryText)
	e.key(1, "support", false)
	e.b = appendFloat(e.b, p.Support)
	e.key(1, "select_all", false)
	e.b = strconv.AppendBool(e.b, p.All)
	e.key(1, "more", false)
	e.b = strconv.AppendBool(e.b, p.More)
	e.key(1, "domain", false)
	e.b = appendString(e.b, p.DomainFP)
	e.key(1, "policy", false)
	e.b = appendString(e.b, "paper-order")
	e.key(1, "substrate", false)
	e.b = appendString(e.b, p.SubstrateName)
	e.key(1, "stop", false)
	e.b = appendString(e.b, "threshold")

	e.key(1, "vars", false)
	e.open(len(p.Vars))
	for i, v := range p.Vars {
		e.item(2, i)
		mult := v.Mult.Marker()
		if mult == "" {
			mult = "1"
		}
		e.b = append(e.b, '{')
		e.key(3, "name", true)
		e.b = appendString(e.b, v.Name)
		e.key(3, "mult", false)
		e.b = appendString(e.b, mult)
		e.key(3, "kind", false)
		e.b = appendString(e.b, v.Kind.String())
		if len(v.Anchors) > 0 {
			e.key(3, "anchors", false)
			e.terms(3, p.voc, v.Anchors)
		}
		e.close(2, '}')
	}
	e.end(1, len(p.Vars))

	e.key(1, "sat", false)
	e.open(len(p.Sat))
	for i, m := range p.Sat {
		e.item(2, i)
		e.b = append(e.b, '{')
		e.key(3, "s", true)
		e.b = appendString(e.b, compName(p, m.S))
		e.key(3, "r", false)
		e.b = appendString(e.b, compName(p, m.R))
		e.key(3, "o", false)
		e.b = appendString(e.b, compName(p, m.O))
		e.close(2, '}')
	}
	e.end(1, len(p.Sat))

	e.key(1, "valid_base", false)
	e.open(len(p.ValidBase))
	for i, row := range p.ValidBase {
		e.item(2, i)
		e.terms(2, p.voc, row)
		if len(e.b) >= irChunk {
			e.flush()
		}
	}
	e.end(1, len(p.ValidBase))
	e.close(0, '}')
	e.flush()
	return e.err
}

// compName renders one meta-fact component with terms resolved to names.
func compName(p *Plan, c assign.Comp) string {
	if c.Var >= 0 {
		return "$" + p.Vars[c.Var].Name
	}
	if c.Term == vocab.Any {
		return "[]"
	}
	return p.voc.Name(c.Term)
}

// irEncoder gathers encoded bytes in b and writes them to w in chunks,
// keeping the first write error.
type irEncoder struct {
	w   io.Writer
	b   []byte
	err error
}

func (e *irEncoder) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// newline starts a line indented to depth.
func (e *irEncoder) newline(depth int) {
	e.b = append(e.b, '\n')
	for i := 0; i < depth; i++ {
		e.b = append(e.b, "  "...)
	}
}

// key starts an object member at depth; the key names are plain ASCII.
func (e *irEncoder) key(depth int, name string, first bool) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.newline(depth)
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, `": `...)
}

// open starts a list of n items; an empty list is written [] at once.
func (e *irEncoder) open(n int) {
	if n == 0 {
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
}

// item starts list item i at depth.
func (e *irEncoder) item(depth, i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.newline(depth)
}

// end closes a list of n items opened at depth.
func (e *irEncoder) end(depth, n int) {
	if n > 0 {
		e.close(depth, ']')
	}
}

// close writes a closing bracket on its own line at depth.
func (e *irEncoder) close(depth int, c byte) {
	e.newline(depth)
	e.b = append(e.b, c)
}

// terms writes a list of terms, resolved to their names, whose opening
// bracket sits at depth.
func (e *irEncoder) terms(depth int, voc *vocab.Vocabulary, ts []vocab.Term) {
	e.open(len(ts))
	for i, t := range ts {
		e.item(depth+1, i)
		e.b = appendString(e.b, voc.Name(t))
	}
	e.end(depth, len(ts))
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes it with HTML escaping on:
// control bytes, '"', '\\', '<', '>' and '&' escaped, U+2028 and U+2029
// written as \u2028 and \u2029, and each byte of invalid UTF-8 replaced
// by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form with a two-digit negative exponent
// trimmed to one digit (1e-07 as 1e-7) when |f| is below 1e-6 or at least
// 1e21.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
