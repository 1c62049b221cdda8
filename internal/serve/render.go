package serve

// Append renderer for the lookup endpoints. /lookup and /lookup/batch
// are the daemon's hot paths, so their bodies are appended straight from
// *core.Inference into one pooled buffer and written once, with no
// reflection and no intermediate view structs.
//
// The contract is byte identity: every body is exactly what
// json.Encoder with SetIndent("", "  ") produced for the response shapes
// documented below (InferenceView members in order, omitempty, HTML-safe
// string escaping, U+2028/U+2029 and invalid UTF-8 escaped, RFC3339Nano
// timestamps, a trailing newline). render_test.go proves it
// differentially against that encoder; a change to either shape must
// change both.
//
//	/lookup:       {query, snapshot_built_at, found, inference?, inferences?}
//	/lookup/batch: {snapshot_built_at, results: [{ip, found, inference?, error?}]}

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"ipleasing/internal/core"
)

// jsonContentType is the shared Content-Type value of every JSON
// response. Assigning the slice directly skips Header.Set's per-request
// allocation; nothing mutates header values in place, and Add appends
// to a full slice, so sharing it is safe.
var jsonContentType = []string{"application/json"}

// maxPooledBody caps the buffers returned to the pool so one huge batch
// does not pin its body's memory for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// writeRendered sends a rendered JSON body as a 200 in a single Write.
// ok=false means the body could not be represented (a snapshot timestamp
// outside RFC 3339's range): the headers go out with an empty body,
// exactly what the encoder's failed Encode produced.
func writeRendered(w http.ResponseWriter, body []byte, ok bool) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if ok {
		w.Write(body) //nolint:errcheck // client gone; nothing to do
	}
}

// renderLookup renders one /lookup answer: query is echoed as
// kind + "=" + arg, and exactly one of inf (prefix and ip queries) or
// infs (asn queries) carries the match.
func renderLookup(w http.ResponseWriter, kind, arg string, builtAt time.Time, inf *core.Inference, infs []*core.Inference) {
	bp := bodyPool.Get().(*[]byte)
	b := append((*bp)[:0], "{\n  \"query\": \""...)
	b = append(b, kind...)
	b = append(b, '=')
	b = appendJSONStringBody(b, arg)
	b = append(b, '"')
	b = member(b, 1, "snapshot_built_at")
	b, ok := appendJSONTime(b, builtAt)
	b = member(b, 1, "found")
	b = strconv.AppendBool(b, inf != nil || len(infs) > 0)
	if inf != nil {
		b = member(b, 1, "inference")
		b = appendInference(b, 2, inf)
	}
	if len(infs) > 0 {
		b = member(b, 1, "inferences")
		b = append(b, '[')
		for i, inf := range infs {
			if i > 0 {
				b = append(b, ',')
			}
			b = newline(b, 2)
			b = appendInference(b, 3, inf)
		}
		b = newline(b, 1)
		b = append(b, ']')
	}
	b = append(b, "\n}\n"...)
	writeRendered(w, b, ok)
	putBody(bp, b)
}

// renderBatch renders one /lookup/batch answer. ips are the request's
// raw addresses; hits[i] is the match for ips[i] and errs[i] its parse
// error, which takes precedence.
func renderBatch(w http.ResponseWriter, builtAt time.Time, ips []string, hits []*core.Inference, errs []error) {
	bp := bodyPool.Get().(*[]byte)
	b := append((*bp)[:0], "{\n  \"snapshot_built_at\": "...)
	b, ok := appendJSONTime(b, builtAt)
	b = member(b, 1, "results")
	b = append(b, '[')
	for i, ip := range ips {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, 2)
		b = append(b, '{')
		b = newline(b, 3)
		b = append(b, `"ip": `...)
		b = appendJSONString(b, ip)
		b = member(b, 3, "found")
		switch {
		case errs[i] != nil:
			b = append(b, "false"...)
			b = member(b, 3, "error")
			b = appendJSONString(b, errs[i].Error())
		case hits[i] != nil:
			b = append(b, "true"...)
			b = member(b, 3, "inference")
			b = appendInference(b, 4, hits[i])
		default:
			b = append(b, "false"...)
		}
		b = newline(b, 2)
		b = append(b, '}')
	}
	if len(ips) > 0 {
		b = newline(b, 1)
	}
	b = append(b, ']')
	b = append(b, "\n}\n"...)
	writeRendered(w, b, ok)
	putBody(bp, b)
}

// putBody returns a rendered body's buffer to the pool.
func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// appendInference appends one inference as an indented InferenceView
// object whose members sit at depth (the object's own braces one level
// out), applying the view's omitempty rules.
func appendInference(b []byte, depth int, inf *core.Inference) []byte {
	b = append(b, '{')
	b = newline(b, depth)
	b = append(b, `"registry": `...)
	b = appendJSONString(b, inf.Registry.String())
	b = member(b, depth, "prefix")
	b = append(b, '"')
	b = inf.Prefix.AppendTo(b)
	b = append(b, '"')
	b = member(b, depth, "category")
	b = appendJSONString(b, inf.Category.String())
	b = member(b, depth, "group")
	b = strconv.AppendInt(b, int64(inf.Category.Group()), 10)
	b = member(b, depth, "leased")
	b = strconv.AppendBool(b, inf.Category.Leased())
	if inf.Category != core.Orphan {
		b = member(b, depth, "root")
		b = append(b, '"')
		b = inf.Root.AppendTo(b)
		b = append(b, '"')
	}
	if inf.HolderOrg != "" {
		b = member(b, depth, "holder_org")
		b = appendJSONString(b, inf.HolderOrg)
	}
	b = appendUint32s(b, depth, "root_asns", inf.RootASNs)
	b = appendUint32s(b, depth, "root_origins", inf.RootOrigins)
	b = appendUint32s(b, depth, "leaf_origins", inf.LeafOrigins)
	if len(inf.Facilitators) > 0 {
		b = member(b, depth, "facilitators")
		b = append(b, '[')
		for i, f := range inf.Facilitators {
			if i > 0 {
				b = append(b, ',')
			}
			b = newline(b, depth+1)
			b = appendJSONString(b, f)
		}
		b = newline(b, depth)
		b = append(b, ']')
	}
	if inf.NetName != "" {
		b = member(b, depth, "netname")
		b = appendJSONString(b, inf.NetName)
	}
	if inf.Country != "" {
		b = member(b, depth, "country")
		b = appendJSONString(b, inf.Country)
	}
	b = newline(b, depth-1)
	return append(b, '}')
}

// appendUint32s appends an omitempty ASN list member.
func appendUint32s(b []byte, depth int, name string, vs []uint32) []byte {
	if len(vs) == 0 {
		return b
	}
	b = member(b, depth, name)
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, depth+1)
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	b = newline(b, depth)
	return append(b, ']')
}

// member appends the separator, newline and indent before a non-first
// object member at depth, and the member's key.
func member(b []byte, depth int, name string) []byte {
	b = append(b, ',')
	b = newline(b, depth)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, `": `...)
}

// newline appends a newline and depth two-space indents.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// appendJSONTime appends t the way time.Time.MarshalJSON does. ok is
// false for the instants MarshalJSON refuses (a year outside [0,9999] or
// a zone offset of 24 hours or more).
func appendJSONTime(b []byte, t time.Time) ([]byte, bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	ok := b[n0+len("9999")] == '-'
	if ok && b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		hh := 10*(b[len(b)-len("07:00")]-'0') + (b[len(b)-len("7:00")] - '0')
		ok = (c < '0' || c > '9') && hh < 24
	}
	return append(b, '"'), ok
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes with HTML escaping on.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendJSONStringBody(b, s)
	return append(b, '"')
}

// appendJSONStringBody appends the escaped contents of s without quotes:
// short escapes for \\ \" \b \f \n \r \t, \u00XX for the other control
// bytes and for < > &, \ufffd for each invalid UTF-8 byte, and \u2028
// and \u2029 for the two JavaScript line terminators.
func appendJSONStringBody(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
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
	return append(b, s[start:]...)
}

// queryGet returns url.Values.Get(key) of the parsed raw query without
// building the map: the first value of key among the pairs ParseQuery
// keeps (pairs containing ';' and pairs that fail to unescape are
// dropped), percent-decoded with '+' as space. Only a key or value that
// actually needs decoding allocates.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := unescapeQuery(k); !ok || k != key {
			continue
		}
		if v, ok := unescapeQuery(v); ok {
			return v
		}
	}
	return ""
}

// unescapeQuery is url.QueryUnescape reporting failure as ok=false, with
// a no-copy fast path for the common already-plain component.
func unescapeQuery(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	out, err := url.QueryUnescape(s)
	return out, err == nil
}
