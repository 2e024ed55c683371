package xmlutil

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"altstacks/internal/obs"
)

// Parse volume counters (self-gated; one atomic bool load per parse
// when observability is off).
var (
	parseTotal = obs.NewCounter("ogsa_xml_parse_total", "",
		"XML documents parsed")
	parseBytesTotal = obs.NewCounter("ogsa_xml_parse_bytes_total", "",
		"input bytes consumed by the XML parser")
)

// Parse decodes one XML document into an element tree. Namespace
// prefixes are resolved (Element names and attribute names carry
// namespace URIs); xmlns declaration attributes are dropped since they
// are reconstructed on serialization. Whitespace-only character data in
// elements that have child elements is discarded.
//
// Parse is a hand-rolled single-pass parser over the input bytes — the
// inbound counterpart of the pooled serializer. Every request,
// notification delivery, and database read funnels through it, so it
// avoids the per-token allocation of encoding/xml: parser state is
// pooled, elements and attributes are block-allocated, and text spans
// without entity references alias a single upfront copy of the input
// (the one copy that makes the result independent of the caller's
// buffer, which the container recycles). TestParseDifferential pins it
// to an encoding/xml-based reference implementation.
func Parse(data []byte) (*Element, error) {
	parseTotal.Inc()
	parseBytesTotal.Add(int64(len(data)))
	p := parserPool.Get().(*parser)
	p.s = string(data)
	root, err := p.parse()
	p.release()
	parserPool.Put(p)
	if err != nil {
		return nil, err
	}
	return root, nil
}

// MustParse is Parse for static document literals in tests and
// examples; it panics on malformed input.
func MustParse(data string) *Element {
	e, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return e
}

// xmlNamespaceURI is the namespace the reserved "xml" prefix is bound
// to without declaration (Namespaces in XML 1.0 §3).
const xmlNamespaceURI = "http://www.w3.org/XML/1998/namespace"

func errParse(format string, args ...any) error {
	return fmt.Errorf("xmlutil: parse: "+format, args...)
}

// MaxDepth caps element nesting; Parse rejects deeper documents.
// Parse itself is iterative, but Clone, Marshal and Canonical recurse,
// so a document nested millions deep — small enough to pass the 16 MiB
// request and frame caps — would overflow the stack (a fatal error,
// not a recoverable panic) of whichever handler walks it. WS-* messages
// nest a few dozen levels.
const MaxDepth = 512

// elemSlabSize is how many Elements (and attributes) are allocated per
// block. Handed-out entries escape with the document; only the unused
// tail is retained for the next parse.
const elemSlabSize = 64

type rawAttr struct {
	prefix, local, value string
}

type frame struct {
	el      *Element
	rawName string // name as written, for end-tag matching
	nsMark  int    // namespace binding stack depth at open
}

// parser is the reusable state of one Parse call. Everything except
// the element/attribute slabs (whose handed-out entries belong to the
// returned document) survives in a sync.Pool between calls.
type parser struct {
	s    string
	pos  int
	root *Element

	frames   []frame
	nsPrefix []string // parallel binding stacks; "" prefix = default ns
	nsURI    []string
	scratch  []rawAttr

	elemSlab []Element
	attrSlab []xml.Attr
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// release drops every reference into the parsed document so pooled
// state cannot pin it (or its backing input string) in memory.
func (p *parser) release() {
	p.s = ""
	p.pos = 0
	p.root = nil
	frames := p.frames[:cap(p.frames)]
	for i := range frames {
		frames[i] = frame{}
	}
	p.frames = p.frames[:0]
	pre, uri := p.nsPrefix[:cap(p.nsPrefix)], p.nsURI[:cap(p.nsURI)]
	for i := range pre {
		pre[i] = ""
	}
	for i := range uri {
		uri[i] = ""
	}
	p.nsPrefix, p.nsURI = p.nsPrefix[:0], p.nsURI[:0]
	scratch := p.scratch[:cap(p.scratch)]
	for i := range scratch {
		scratch[i] = rawAttr{}
	}
	p.scratch = p.scratch[:0]
}

func (p *parser) newElement() *Element {
	if len(p.elemSlab) == 0 {
		p.elemSlab = make([]Element, elemSlabSize)
	}
	el := &p.elemSlab[0]
	p.elemSlab = p.elemSlab[1:]
	return el
}

func (p *parser) newAttrs(n int) []xml.Attr {
	if len(p.attrSlab) < n {
		p.attrSlab = make([]xml.Attr, max(elemSlabSize, n))
	}
	a := p.attrSlab[:n:n]
	p.attrSlab = p.attrSlab[n:]
	return a
}

func (p *parser) parse() (*Element, error) {
	s := p.s
	for p.pos < len(s) {
		if s[p.pos] != '<' {
			var span string
			if lt := strings.IndexByte(s[p.pos:], '<'); lt < 0 {
				span = s[p.pos:]
				p.pos = len(s)
			} else {
				span = s[p.pos : p.pos+lt]
				p.pos += lt
			}
			dec, err := decodeText(span, true)
			if err != nil {
				return nil, err
			}
			p.appendText(dec)
			continue
		}
		if p.pos+1 >= len(s) {
			return nil, errParse("unexpected EOF")
		}
		var err error
		switch s[p.pos+1] {
		case '/':
			err = p.endTag()
		case '!':
			err = p.bang()
		case '?':
			err = p.procInst()
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.frames) != 0 {
		return nil, errParse("unexpected EOF inside %s", p.frames[len(p.frames)-1].el.Name.Local)
	}
	if p.root == nil {
		return nil, errParse("empty document")
	}
	return p.root, nil
}

// appendText adds character data to the open element; data outside the
// root element is validated but discarded, matching the reference
// tree-builder.
func (p *parser) appendText(dec string) {
	if n := len(p.frames); n > 0 {
		el := p.frames[n-1].el
		if el.Text == "" {
			el.Text = dec
		} else {
			el.Text += dec
		}
	}
}

func (p *parser) skipSpace() {
	s := p.s
	for p.pos < len(s) {
		switch s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// name consumes one XML name. ASCII follows the spec's production;
// multi-byte runes are accepted wholesale (a lenient superset of the
// spec's letter tables, matching every document either stack emits).
func (p *parser) name() (string, error) {
	s := p.s
	start := p.pos
	if start >= len(s) {
		return "", errParse("unexpected EOF")
	}
	if c := s[start]; c < 0x80 && !nameStartByte[c] {
		return "", errParse("invalid XML name at byte %d", start)
	}
	i := start
	for i < len(s) {
		c := s[i]
		if c >= 0x80 {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", errParse("invalid UTF-8")
			}
			i += size
			continue
		}
		if !nameByte[c] {
			break
		}
		i++
	}
	p.pos = i
	return s[start:i], nil
}

// splitName separates an optional namespace prefix. A leading or
// trailing colon is kept as part of the local name (as the reference
// decoder does); more than one interior colon is rejected.
func splitName(n string) (prefix, local string, err error) {
	i := strings.IndexByte(n, ':')
	if i <= 0 || i == len(n)-1 {
		return "", n, nil
	}
	if strings.IndexByte(n[i+1:], ':') >= 0 {
		return "", "", errParse("invalid XML name %s", n)
	}
	return n[:i], n[i+1:], nil
}

func (p *parser) pushNS(prefix, uri string) {
	p.nsPrefix = append(p.nsPrefix, prefix)
	p.nsURI = append(p.nsURI, uri)
}

func (p *parser) popNS(mark int) {
	p.nsPrefix = p.nsPrefix[:mark]
	p.nsURI = p.nsURI[:mark]
}

// resolve maps a prefix to its namespace URI using the innermost
// binding. Unprefixed attributes are in no namespace; an undeclared
// prefix resolves to itself, the reference decoder's behavior.
func (p *parser) resolve(prefix string, isAttr bool) string {
	if isAttr && prefix == "" {
		return ""
	}
	if prefix == "xml" {
		return xmlNamespaceURI
	}
	for i := len(p.nsPrefix) - 1; i >= 0; i-- {
		if p.nsPrefix[i] == prefix {
			return p.nsURI[i]
		}
	}
	return prefix
}

func (p *parser) startTag() error {
	s := p.s
	if len(p.frames) >= MaxDepth {
		return errParse("elements nested deeper than %d", MaxDepth)
	}
	p.pos++ // '<'
	raw, err := p.name()
	if err != nil {
		return err
	}
	nsMark := len(p.nsPrefix)
	p.scratch = p.scratch[:0]
	selfClose := false
	for {
		p.skipSpace()
		if p.pos >= len(s) {
			return errParse("unexpected EOF in element <%s>", raw)
		}
		if c := s[p.pos]; c == '>' {
			p.pos++
			break
		} else if c == '/' {
			if p.pos+1 >= len(s) || s[p.pos+1] != '>' {
				return errParse("expected /> closing element <%s>", raw)
			}
			p.pos += 2
			selfClose = true
			break
		}
		aname, err := p.name()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(s) || s[p.pos] != '=' {
			return errParse("attribute %s in element <%s> missing value", aname, raw)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(s) || (s[p.pos] != '"' && s[p.pos] != '\'') {
			return errParse("unquoted or missing attribute value in element <%s>", raw)
		}
		q := s[p.pos]
		p.pos++
		end := strings.IndexByte(s[p.pos:], q)
		if end < 0 {
			return errParse("unexpected EOF in attribute value")
		}
		rawVal := s[p.pos : p.pos+end]
		p.pos += end + 1
		if strings.IndexByte(rawVal, '<') >= 0 {
			return errParse("unescaped < inside quoted string")
		}
		val, err := decodeText(rawVal, false)
		if err != nil {
			return err
		}
		if aname == "xmlns" {
			p.pushNS("", val)
			continue
		}
		apfx, alocal, err := splitName(aname)
		if err != nil {
			return err
		}
		if apfx == "xmlns" {
			p.pushNS(alocal, val)
			continue
		}
		p.scratch = append(p.scratch, rawAttr{prefix: apfx, local: alocal, value: val})
	}

	pfx, local, err := splitName(raw)
	if err != nil {
		return err
	}
	el := p.newElement()
	el.Name = xml.Name{Space: p.resolve(pfx, false), Local: local}
	if n := len(p.scratch); n > 0 {
		attrs := p.newAttrs(n)
		for i, ra := range p.scratch {
			attrs[i] = xml.Attr{
				Name:  xml.Name{Space: p.resolve(ra.prefix, true), Local: ra.local},
				Value: ra.value,
			}
		}
		el.Attrs = attrs
	}
	if n := len(p.frames); n > 0 {
		parent := p.frames[n-1].el
		parent.Children = append(parent.Children, el)
	} else {
		if p.root != nil {
			return errParse("multiple root elements")
		}
		p.root = el
	}
	if selfClose {
		p.popNS(nsMark)
	} else {
		p.frames = append(p.frames, frame{el: el, rawName: raw, nsMark: nsMark})
	}
	return nil
}

func (p *parser) endTag() error {
	p.pos += 2 // "</"
	raw, err := p.name()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != '>' {
		return errParse("invalid characters between </%s and >", raw)
	}
	p.pos++
	n := len(p.frames)
	if n == 0 {
		return errParse("unbalanced end element %s", raw)
	}
	f := p.frames[n-1]
	if f.rawName != raw {
		return errParse("element <%s> closed by </%s>", f.rawName, raw)
	}
	p.frames = p.frames[:n-1]
	// Drop insignificant whitespace in container elements.
	if len(f.el.Children) > 0 && strings.TrimSpace(f.el.Text) == "" {
		f.el.Text = ""
	}
	p.popNS(f.nsMark)
	return nil
}

func (p *parser) bang() error {
	rest := p.s[p.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return p.comment()
	case strings.HasPrefix(rest, "<![CDATA["):
		return p.cdata()
	default:
		return p.directive()
	}
}

func (p *parser) comment() error {
	s := p.s
	p.pos += 4 // "<!--"
	idx := strings.Index(s[p.pos:], "--")
	if idx < 0 {
		return errParse("unexpected EOF in comment")
	}
	if err := validateChars(s[p.pos : p.pos+idx]); err != nil {
		return err
	}
	p.pos += idx
	if p.pos+2 >= len(s) {
		return errParse("unexpected EOF in comment")
	}
	if s[p.pos+2] != '>' {
		return errParse(`invalid sequence "--" not allowed in comments`)
	}
	p.pos += 3
	return nil
}

func (p *parser) cdata() error {
	s := p.s
	p.pos += 9 // "<![CDATA["
	idx := strings.Index(s[p.pos:], "]]>")
	if idx < 0 {
		return errParse("unexpected EOF in CDATA section")
	}
	span := s[p.pos : p.pos+idx]
	p.pos += idx + 3
	if err := validateChars(span); err != nil {
		return err
	}
	if strings.IndexByte(span, '\r') >= 0 {
		span = normalizeCR(span)
	}
	p.appendText(span)
	return nil
}

func (p *parser) directive() error {
	s := p.s
	p.pos += 2 // "<!"
	start := p.pos
	depth := 0
	var quote byte
	for p.pos < len(s) {
		c := s[p.pos]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
		} else {
			switch c {
			case '\'', '"':
				quote = c
			case '<':
				depth++
			case '>':
				if depth == 0 {
					err := validateChars(s[start:p.pos])
					p.pos++
					return err
				}
				depth--
			}
		}
		p.pos++
	}
	return errParse("unexpected EOF in directive")
}

func (p *parser) procInst() error {
	s := p.s
	p.pos += 2 // "<?"
	idx := strings.Index(s[p.pos:], "?>")
	if idx < 0 {
		return errParse("unexpected EOF in processing instruction")
	}
	span := s[p.pos : p.pos+idx]
	p.pos += idx + 2
	if err := validateChars(span); err != nil {
		return err
	}
	// The reference decoder rejects declared non-UTF-8 encodings (it
	// has no CharsetReader configured); match it.
	if strings.HasPrefix(span, "xml") {
		if enc := procInstAttr(span, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return errParse("encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return nil
}

// procInstAttr extracts a pseudo-attribute value from an <?xml ...?>
// declaration body.
func procInstAttr(body, attr string) string {
	idx := strings.Index(body, attr+"=")
	if idx < 0 {
		return ""
	}
	v := body[idx+len(attr)+1:]
	if len(v) < 2 || (v[0] != '"' && v[0] != '\'') {
		return ""
	}
	end := strings.IndexByte(v[1:], v[0])
	if end < 0 {
		return ""
	}
	return v[1 : 1+end]
}

// Byte classes for the text scanner.
const (
	tcPlain   = iota // copied verbatim
	tcRewrite        // '&' or '\r': span must be rewritten
	tcBracket        // ']': possible unescaped "]]>"
	tcBad            // control characters illegal in XML
	tcHigh           // >= 0x80: multi-byte rune, validate UTF-8
)

var (
	textClass     [256]byte
	nameByte      [256]bool
	nameStartByte [256]bool
)

func init() {
	for i := 0; i < 256; i++ {
		switch {
		case i >= 0x80:
			textClass[i] = tcHigh
		case i == '&' || i == '\r':
			textClass[i] = tcRewrite
		case i == ']':
			textClass[i] = tcBracket
		case i < 0x20 && i != '\t' && i != '\n':
			textClass[i] = tcBad
		default:
			textClass[i] = tcPlain
		}
		c := byte(i)
		isLetter := c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z'
		nameStartByte[i] = isLetter || c == '_' || c == ':'
		nameByte[i] = nameStartByte[i] || c >= '0' && c <= '9' || c == '-' || c == '.'
	}
}

// decodeText validates a character-data or attribute-value span and
// resolves entity references and CR/CRLF normalization. Spans needing
// neither are returned as-is — a zero-copy alias of the input string.
func decodeText(span string, cdataEndIllegal bool) (string, error) {
	needs := false
	for i := 0; i < len(span); i++ {
		switch textClass[span[i]] {
		case tcPlain:
		case tcRewrite:
			needs = true
		case tcBracket:
			if cdataEndIllegal && strings.HasPrefix(span[i:], "]]>") {
				return "", errParse("unescaped ]]> not in CDATA section")
			}
		case tcBad:
			return "", errParse("illegal character code %U", rune(span[i]))
		case tcHigh:
			r, size := utf8.DecodeRuneInString(span[i:])
			if r == utf8.RuneError && size == 1 {
				return "", errParse("invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return "", errParse("illegal character code %U", r)
			}
			i += size - 1
		}
	}
	if !needs {
		return span, nil
	}
	return rewriteText(span)
}

// validateChars checks comment/PI/directive/CDATA content, where
// entity references are not recognized.
func validateChars(span string) error {
	for i := 0; i < len(span); i++ {
		c := span[i]
		if c >= 0x80 {
			r, size := utf8.DecodeRuneInString(span[i:])
			if r == utf8.RuneError && size == 1 {
				return errParse("invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return errParse("illegal character code %U", r)
			}
			i += size - 1
		} else if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			return errParse("illegal character code %U", rune(c))
		}
	}
	return nil
}

// rewriteText is the slow path: entity references decoded, CR and CRLF
// normalized to LF (XML 1.0 §2.11).
func rewriteText(span string) (string, error) {
	var b strings.Builder
	b.Grow(len(span))
	for i := 0; i < len(span); i++ {
		switch c := span[i]; c {
		case '\r':
			b.WriteByte('\n')
			if i+1 < len(span) && span[i+1] == '\n' {
				i++
			}
		case '&':
			r, width, err := decodeEntity(span[i:])
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			i += width - 1
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

func normalizeCR(span string) string {
	var b strings.Builder
	b.Grow(len(span))
	for i := 0; i < len(span); i++ {
		if c := span[i]; c == '\r' {
			b.WriteByte('\n')
			if i+1 < len(span) && span[i+1] == '\n' {
				i++
			}
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decodeEntity resolves one entity reference at the start of s
// (s[0] == '&'), returning the rune and the reference's byte width.
// Only the five predefined entities and character references are
// recognized; DTD-defined entities are not expanded, matching the
// reference decoder.
func decodeEntity(s string) (rune, int, error) {
	limit := len(s)
	if limit > 34 {
		limit = 34
	}
	end := strings.IndexByte(s[:limit], ';')
	if end < 0 {
		return 0, 0, errParse("invalid character entity (no semicolon)")
	}
	name := s[1:end]
	width := end + 1
	switch name {
	case "lt":
		return '<', width, nil
	case "gt":
		return '>', width, nil
	case "amp":
		return '&', width, nil
	case "apos":
		return '\'', width, nil
	case "quot":
		return '"', width, nil
	}
	if !strings.HasPrefix(name, "#") {
		return 0, 0, errParse("invalid character entity &%s;", name)
	}
	num := name[1:]
	base := 10
	if strings.HasPrefix(num, "x") {
		base = 16
		num = num[1:]
	}
	n, err := strconv.ParseUint(num, base, 32)
	if err != nil {
		return 0, 0, errParse("invalid character entity &%s;", name)
	}
	r := rune(n)
	if !validXMLChar(r) {
		return 0, 0, errParse("illegal character code %U", r)
	}
	return r, width, nil
}

// validXMLChar reports whether r is in the XML 1.0 Char production.
func validXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
