// Package naming implements Legion contexts: the hierarchical mappings
// from human string names to LOIDs that compilers and users work with
// (§4.1: "The compiler uses the context to map string names to LOID's,
// which then become embedded within Legion executable programs"). A
// context is a tree of directories whose leaves are LOIDs, addressed by
// slash-separated paths. Contexts serialize, so they can be carried as
// object state.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/loid"
	"repro/internal/wire"
)

var (
	// ErrNotFound reports a path with no binding.
	ErrNotFound = errors.New("naming: name not found")
	// ErrExists reports a Bind over an existing name without replace.
	ErrExists = errors.New("naming: name already bound")
	// ErrNotDir reports path traversal through a leaf.
	ErrNotDir = errors.New("naming: path component is not a directory")
	// ErrIsDir reports a leaf operation on a directory.
	ErrIsDir = errors.New("naming: name is a directory")
	// ErrBadName reports an empty or malformed path component.
	ErrBadName = errors.New("naming: bad name")
)

// Context is a hierarchical name space. The zero value is not usable;
// call NewContext. Contexts are safe for concurrent use.
type Context struct {
	mu   sync.RWMutex
	root *dir
}

type dir struct {
	dirs   map[string]*dir
	leaves map[string]loid.LOID
}

func newDir() *dir {
	return &dir{dirs: make(map[string]*dir), leaves: make(map[string]loid.LOID)}
}

// NewContext builds an empty context.
func NewContext() *Context {
	return &Context{root: newDir()}
}

// split validates and splits a path into components.
func split(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadName, p)
		}
	}
	return parts, nil
}

// walk descends to the directory containing the last component,
// creating intermediate directories if create is set. It returns the
// parent dir and the final component.
func (c *Context) walk(parts []string, create bool) (*dir, string, error) {
	d := c.root
	for _, p := range parts[:len(parts)-1] {
		next, ok := d.dirs[p]
		if !ok {
			if _, isLeaf := d.leaves[p]; isLeaf {
				return nil, "", fmt.Errorf("%w: %q", ErrNotDir, p)
			}
			if !create {
				return nil, "", fmt.Errorf("%w: %q", ErrNotFound, p)
			}
			next = newDir()
			d.dirs[p] = next
		}
		d = next
	}
	return d, parts[len(parts)-1], nil
}

// Bind maps path to l, creating intermediate directories. Binding over
// an existing name fails with ErrExists unless replace is set; binding
// over a directory always fails.
func (c *Context) Bind(path string, l loid.LOID, replace bool) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: empty path", ErrBadName)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, name, err := c.walk(parts, true)
	if err != nil {
		return err
	}
	if _, isDir := d.dirs[name]; isDir {
		return fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	if _, ok := d.leaves[name]; ok && !replace {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	d.leaves[name] = l
	return nil
}

// Lookup resolves path to a LOID.
func (c *Context) Lookup(path string) (loid.LOID, error) {
	parts, err := split(path)
	if err != nil {
		return loid.Nil, err
	}
	if len(parts) == 0 {
		return loid.Nil, fmt.Errorf("%w: empty path", ErrBadName)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, name, err := c.walk(parts, false)
	if err != nil {
		return loid.Nil, err
	}
	l, ok := d.leaves[name]
	if !ok {
		if _, isDir := d.dirs[name]; isDir {
			return loid.Nil, fmt.Errorf("%w: %q", ErrIsDir, path)
		}
		return loid.Nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return l, nil
}

// Unbind removes the leaf at path.
func (c *Context) Unbind(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: empty path", ErrBadName)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, name, err := c.walk(parts, false)
	if err != nil {
		return err
	}
	if _, ok := d.leaves[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	delete(d.leaves, name)
	return nil
}

// Entry is one directory listing element.
type Entry struct {
	Name  string
	IsDir bool
	LOID  loid.LOID // zero for directories
}

// List enumerates the entries of the directory at path ("" or "/" for
// the root), sorted by name.
func (c *Context) List(path string) ([]Entry, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	d := c.root
	for _, p := range parts {
		next, ok := d.dirs[p]
		if !ok {
			if _, isLeaf := d.leaves[p]; isLeaf {
				return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
		}
		d = next
	}
	out := make([]Entry, 0, len(d.dirs)+len(d.leaves))
	for name := range d.dirs {
		out = append(out, Entry{Name: name, IsDir: true})
	}
	for name, l := range d.leaves {
		out = append(out, Entry{Name: name, LOID: l})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk visits every leaf as (path, LOID), in sorted path order.
func (c *Context) Walk(fn func(path string, l loid.LOID)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var rec func(prefix string, d *dir)
	rec = func(prefix string, d *dir) {
		names := make([]string, 0, len(d.dirs)+len(d.leaves))
		for n := range d.dirs {
			names = append(names, n)
		}
		for n := range d.leaves {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if sub, ok := d.dirs[n]; ok {
				rec(prefix+n+"/", sub)
			}
			if l, ok := d.leaves[n]; ok {
				fn(prefix+n, l)
			}
		}
	}
	rec("/", c.root)
}

// Len counts the leaves in the whole context.
func (c *Context) Len() int {
	n := 0
	c.Walk(func(string, loid.LOID) { n++ })
	return n
}

// Replace swaps c's contents for other's (used by RestoreState).
func (c *Context) Replace(other *Context) {
	other.mu.RLock()
	root := other.root
	other.mu.RUnlock()
	c.mu.Lock()
	c.root = root
	c.mu.Unlock()
}

// Marshal serializes the context as a flat list of (path, LOID) pairs.
func (c *Context) Marshal(dst []byte) []byte {
	var pairs wire.Writer
	n := 0
	c.Walk(func(p string, l loid.LOID) {
		pairs.Str32(p)
		pairs.LOID(l)
		n++
	})
	w := wire.NewWriter(dst)
	w.Count32(n)
	w.Raw(pairs.Bytes())
	return w.Bytes()
}

// Limits on a decoded context.
const (
	maxPairs   = 1 << 24
	maxPathLen = 1 << 16
)

// UnmarshalContext rebuilds a context from Marshal output.
func UnmarshalContext(src []byte) (*Context, error) {
	r := wire.NewReader(src)
	n := r.Count32(4 + loid.EncodedSize)
	if n > maxPairs {
		return nil, fmt.Errorf("naming: pair count %d exceeds limit", n)
	}
	c := NewContext()
	for i := 0; i < n; i++ {
		path, l := r.Str32(maxPathLen), r.LOID()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("naming: %w", err)
		}
		if err := c.Bind(path, l, false); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("naming: %w", err)
	}
	return c, nil
}
