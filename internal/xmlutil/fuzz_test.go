package xmlutil

import (
	"strings"
	"testing"
)

// FuzzParse drives the hand-rolled parser with adversarial input. Two
// invariants, checked on every input the fuzzer invents:
//
//  1. Parse never panics — the container feeds it raw network bytes.
//  2. Anything Parse accepts survives Marshal → Parse unchanged
//     (serializer and parser agree on the document model).
//
// Differential agreement with encoding/xml is pinned separately by
// TestParseDifferential over the curated corpus; re-running the
// reference decoder here would make the fuzzer measure its speed, not
// this parser's robustness.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCorpus {
		f.Add([]byte(tc.doc))
	}
	// Seeds aimed at the tokenizer's corners: entity edges, nesting
	// depth, truncated constructs, namespace machinery.
	for _, s := range []string{
		`<a>&#x10FFFF;&#xD7FF;&#32;</a>`,
		`<a>&amp;&ampx;&;&#;&#x;</a>`,
		`<a b="&#`,
		`<![CDATA[`,
		`<a><![CDATA[]]]]><![CDATA[>]]></a>`,
		`<?xml version="1.0" encoding=`,
		`<!DOCTYPE a [ <!ENTITY x "<y>"> ]><a>&x;</a>`,
		`<!DOCTYPE a [ "unterminated ]><a/>`,
		`<a xmlns=">"/>`,
		`<a xmlns:p="u" xmlns:p="v"/>`,
		`<p:a xmlns:p=""/>`,
		`<a/><a/>`,
		"<a>\xc3</a>",
		"<a>\xed\xa0\x80</a>",
		"<\xff\xfe>",
		strings.Repeat("<d>", 500),
		strings.Repeat("<d>", 200) + strings.Repeat("</d>", 200),
		strings.Repeat("<a b='1' ", 50),
		"<a>" + strings.Repeat("&lt;", 300) + "</a>",
		nested(MaxDepth),
		nested(MaxDepth + 1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := Parse(data) // must not panic
		if err != nil {
			return
		}
		re, err := Parse(el.Marshal())
		if err != nil {
			t.Fatalf("reparse of marshaled accepted doc failed: %v\ninput: %q", err, data)
		}
		if !equalStrict(el, re) {
			t.Fatalf("marshal/parse round trip changed the tree\ninput: %q", data)
		}
	})
}
