package stemroot

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCitation matches a citation of a DESIGN.md section, single or as a
// range: "DESIGN §6", "DESIGN.md §5.3", "DESIGN §§5.1–5.6".
var designCitation = regexp.MustCompile(`DESIGN(?:\.md)? §§?(\d+(?:\.\d+)?)(?:[–-](\d+(?:\.\d+)?))?`)

// designHeading matches a numbered DESIGN.md heading: "## 6. ..." or
// "### 6.1 ...".
var designHeading = regexp.MustCompile(`(?m)^##+ (\d+(?:\.\d+)?)\.? `)

// TestDesignCitationsResolve fails when a .go or .md file cites a DESIGN.md
// section that has no heading. CHANGES.md quotes history and is exempt.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if !sections["6"] || !sections["5.1"] {
		t.Fatalf("DESIGN.md headings not recognised: %v", sections)
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); (ext != ".go" && ext != ".md") || path == "CHANGES.md" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range designCitation.FindAllStringSubmatch(line, -1) {
				for _, sec := range m[1:] {
					if sec == "" {
						continue
					}
					cited++
					if !sections[sec] {
						t.Errorf("%s:%d: %q cites §%s, which DESIGN.md has no heading for", path, i+1, m[0], sec)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no DESIGN citations found: the pattern no longer matches how the tree cites")
	}
}
