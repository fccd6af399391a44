// Package dnsmsg implements the subset of the DNS wire format (RFC 1035)
// used by the simulated Internet: messages with A, NS, CNAME, SOA, MX, TXT
// and AAAA records, including name compression.
//
// Having a real codec (rather than passing Go structs around) keeps the
// simulated nameservers and resolvers honest: every query and answer in the
// measurement pipeline crosses a byte boundary exactly as it would on the
// wire, so truncation, case handling, and compression bugs are observable.
package dnsmsg

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a fully-qualified, normalized (lowercase, no trailing dot) domain
// name. The root zone is the empty Name.
type Name string

// Name validation errors.
var (
	ErrNameTooLong  = errors.New("dnsmsg: name exceeds 253 octets")
	ErrLabelTooLong = errors.New("dnsmsg: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnsmsg: empty label")
)

// ParseName normalizes and validates s as a domain name. It accepts an
// optional trailing dot and uppercase letters; "." and "" both denote the
// root.
func ParseName(s string) (Name, error) {
	s = strings.TrimSuffix(strings.ToLower(s), ".")
	if s == "" {
		return "", nil
	}
	if len(s) > 253 {
		return "", fmt.Errorf("parsing %q: %w", s, ErrNameTooLong)
	}
	for _, label := range strings.Split(s, ".") {
		if label == "" {
			return "", fmt.Errorf("parsing %q: %w", s, ErrEmptyLabel)
		}
		if len(label) > 63 {
			return "", fmt.Errorf("parsing %q: %w", s, ErrLabelTooLong)
		}
	}
	return Name(s), nil
}

// MustParseName is ParseName but panics on error; for constants and tests.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String implements fmt.Stringer, rendering the root as ".".
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n)
}

// Labels returns the name's labels, leftmost first. The root has none.
func (n Name) Labels() []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == "" }

// Parent returns the name with its leftmost label removed. The parent of
// the root is the root.
func (n Name) Parent() Name {
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return ""
}

// Child returns label.n. It panics on an invalid label; children are built
// from validated configuration, not wire input.
func (n Name) Child(label string) Name {
	label = childLabel(label)
	if n == "" {
		return Name(label)
	}
	return Name(label) + "." + n
}

// childLabel lowercases and checks a label for Child.
func childLabel(label string) string {
	label = strings.ToLower(label)
	if label == "" || len(label) > 63 || strings.Contains(label, ".") {
		panic(fmt.Sprintf("dnsmsg: invalid label %q", label))
	}
	return label
}

// IsSubdomainOf reports whether n equals zone or falls under it. Every name
// is a subdomain of the root.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone == "" {
		return true
	}
	if n == zone {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(zone))
}

// ContainsSubstring reports whether needle occurs in any label of n. The
// paper's CNAME- and NS-matching (§IV-B.2) identifies providers by unique
// substrings such as "cloudflare" or "incapdns"; this is that primitive.
func (n Name) ContainsSubstring(needle string) bool {
	return strings.Contains(string(n), strings.ToLower(needle))
}
