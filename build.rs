//! Generates typed Rust stubs for the paper's `Test` interface at build
//! time — the role the Firefly stub compiler played ("The stubs are
//! generated as Modula-2+ source, which is compiled by the normal
//! compiler", §2.2). The output lands in `OUT_DIR/test_stubs.rs` and is
//! included by `firefly::generated`; `tests/golden/test_stubs.rs` pins it
//! (`tests/typed_stubs.rs` compares the two).
//!
//! A second module, for `tests/golden/rich.def` (every shape the stub
//! compiler supports), goes to `OUT_DIR/rich_stubs.rs`; only
//! `tests/typed_stubs.rs` includes it.
//!
//! Generating must never fail the library build: whatever goes wrong is
//! a `cargo:warning=`, and the library falls back on the golden copy.

#![forbid(unsafe_code)]

use std::path::Path;

const GOLDEN: &str = "tests/golden/test_stubs.rs";
const RICH: &str = "tests/golden/rich.def";

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed={GOLDEN}");
    println!("cargo:rerun-if-changed={RICH}");
    let Some(out_dir) = std::env::var_os("OUT_DIR") else {
        println!("cargo:warning=OUT_DIR is not set; no stubs generated");
        return;
    };
    let out_dir = Path::new(&out_dir);

    let path = out_dir.join("test_stubs.rs");
    let stubs = firefly_idl::codegen::rust_stubs(&firefly_idl::test_interface());
    if let Err(e) = std::fs::write(&path, stubs) {
        println!(
            "cargo:warning=writing {}: {e}; using {GOLDEN}",
            path.display()
        );
        if let Err(e) = std::fs::copy(GOLDEN, &path) {
            println!("cargo:warning=copying {GOLDEN}: {e}");
        }
    }

    let rich = std::fs::read_to_string(RICH)
        .map_err(|e| e.to_string())
        .and_then(|source| firefly_idl::parse_interface(&source).map_err(|e| e.to_string()))
        .map(|interface| firefly_idl::codegen::rust_stubs(&interface))
        .and_then(|stubs| {
            std::fs::write(out_dir.join("rich_stubs.rs"), stubs).map_err(|e| e.to_string())
        });
    if let Err(e) = rich {
        println!("cargo:warning=stubs for {RICH}: {e}");
    }
}
