//! Lucene-like text-indexing workload.
//!
//! Reproduces the paper's Lucene 6.1.0 setup (indexing a Wikipedia dump at
//! 25 k ops/s, 80% writes) with a synthetic corpus:
//!
//! - *Transient*: per-document token streams and per-query scoring
//!   buffers — die within the operation.
//! - *Middle-lived*: in-memory segment posting buffers — accumulate until
//!   the segment flushes at a document threshold, then die together.
//! - *Long-lived*: the term dictionary (grows towards the vocabulary
//!   size) and flushed-segment metadata (until merges drop them).
//!
//! The paper filters profiling to `lucene.store`; the analysis chain
//! (`lucene.analysis`) is deliberately outside the filter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rolp::runtime::JvmRuntime;
use rolp::PackageFilters;
use rolp_heap::{ClassId, FoldMap, Handle};
use rolp_vm::{AllocSiteId, CallSiteId, MutatorCtx, ProgramBuilder};

use crate::spec::Workload;
use crate::ycsb::Zipfian;

/// NG2C annotations: posting buffers live to segment flush.
const POSTING_GEN: u8 = 7;
/// Dictionary and segment metadata are effectively immortal.
const DICT_GEN: u8 = 15;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct LuceneParams {
    /// Fraction of index (write) operations; paper: 0.80.
    pub write_fraction: f64,
    /// Nanoseconds of think time per op (paper: 25 k ops/s → 40 µs).
    pub op_pacing_ns: u64,
    /// Documents per in-memory segment before flush.
    pub segment_flush_docs: usize,
    /// Vocabulary size of the synthetic corpus.
    pub vocabulary: u64,
    /// Words per document.
    pub doc_words: usize,
    /// Posting chunks appended per indexed document (the middle-lived
    /// segment mass).
    pub postings_per_doc: usize,
    /// Transient analysis scratch buffers per document (tokenizer chains
    /// churn heavily).
    pub analysis_scratch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LuceneParams {
    fn default() -> Self {
        LuceneParams {
            write_fraction: 0.80,
            op_pacing_ns: 40_000,
            segment_flush_docs: 12_000,
            vocabulary: 80_000,
            doc_words: 48,
            postings_per_doc: 2,
            analysis_scratch: 4,
            seed: 0x10CE,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Ids {
    cs_analyze: CallSiteId,
    cs_index_doc: CallSiteId,
    cs_add_posting: CallSiteId,
    cs_flush: CallSiteId,
    cs_merge: CallSiteId,
    cs_search: CallSiteId,
    cs_score: CallSiteId,
    cs_norm: CallSiteId,
    site_tokens: AllocSiteId,
    site_posting: AllocSiteId,
    site_dict: AllocSiteId,
    site_segment: AllocSiteId,
    site_hits: AllocSiteId,
}

#[derive(Debug, Clone, Copy)]
struct Classes {
    tokens: ClassId,
    posting: ClassId,
    dict: ClassId,
    segment: ClassId,
    hits: ClassId,
}

/// The Lucene-like workload.
pub struct LuceneWorkload {
    params: LuceneParams,
    rng: StdRng,
    terms: Zipfian,
    ids: Option<Ids>,
    classes: Option<Classes>,
    /// Term id → dictionary entry handle (immortal).
    dictionary: FoldMap<u64, Handle>,
    /// Current in-memory segment's posting buffers.
    segment_postings: Vec<Handle>,
    docs_in_segment: usize,
    /// Flushed segment metadata, oldest first.
    segments: Vec<Handle>,
    annotate: bool,
    /// Segments flushed (epochs).
    pub flushes: u64,
    /// Merges performed.
    pub merges: u64,
}

impl LuceneWorkload {
    /// Creates the workload.
    pub fn new(params: LuceneParams) -> Self {
        let terms = Zipfian::new(params.vocabulary, 1.0); // word frequencies: zipf(1)
        let rng = StdRng::seed_from_u64(params.seed);
        LuceneWorkload {
            params,
            rng,
            terms,
            ids: None,
            classes: None,
            dictionary: FoldMap::default(),
            segment_postings: Vec::new(),
            docs_in_segment: 0,
            segments: Vec::new(),
            annotate: false,
            flushes: 0,
            merges: 0,
        }
    }

    /// Mutable parameter access for shape-only overrides after
    /// construction (e.g. the service harness zeroes `op_pacing_ns`
    /// because the arrival schedule paces requests). The term
    /// distribution and RNG seed are baked in at [`LuceneWorkload::new`];
    /// changing them here has no effect.
    pub fn params_mut(&mut self) -> &mut LuceneParams {
        &mut self.params
    }

    fn ids(&self) -> Ids {
        self.ids.expect("build_program not called")
    }

    fn classes(&self) -> Classes {
        self.classes.expect("setup not called")
    }

    fn index_document(&mut self, ctx: &mut MutatorCtx<'_>) {
        let ids = self.ids();
        let classes = self.classes();
        let words = self.params.doc_words;
        let annotate = self.annotate;

        // Analysis: a transient token stream plus tokenizer scratch
        // buffers per document — the heavy die-young churn of a Lucene
        // analysis chain.
        let tokens = ctx.call(ids.cs_analyze, |ctx| {
            ctx.work(words as u64 * 120);
            ctx.alloc(ids.site_tokens, classes.tokens, 0, words as u32)
        });
        let mut scratch = Vec::with_capacity(self.params.analysis_scratch);
        for _ in 0..self.params.analysis_scratch {
            scratch.push(ctx.call(ids.cs_analyze, |ctx| {
                ctx.work(600);
                ctx.alloc(ids.site_tokens, classes.tokens, 0, 40)
            }));
        }

        // Indexing: postings accumulate in the in-memory segment.
        let mut new_dict_terms = Vec::new();
        for _ in 0..words {
            let term = self.terms.sample(&mut self.rng);
            if !self.dictionary.contains_key(&term) {
                new_dict_terms.push(term);
            }
        }
        ctx.call(ids.cs_index_doc, |ctx| {
            ctx.work(words as u64 * 150);
            ctx.call(ids.cs_norm, |ctx| ctx.work(2)); // tiny, inlined
        });
        for _ in 0..self.params.postings_per_doc {
            let h = ctx.call(ids.cs_add_posting, |ctx| {
                ctx.work(500);
                if annotate {
                    ctx.alloc_annotated(ids.site_posting, classes.posting, 0, 16, POSTING_GEN)
                } else {
                    ctx.alloc(ids.site_posting, classes.posting, 0, 16)
                }
            });
            self.segment_postings.push(h);
        }
        for s in scratch {
            ctx.release(s);
        }
        for term in new_dict_terms {
            let h = if annotate {
                ctx.alloc_annotated(ids.site_dict, classes.dict, 0, 8, DICT_GEN)
            } else {
                ctx.alloc(ids.site_dict, classes.dict, 0, 8)
            };
            self.dictionary.insert(term, h);
        }

        ctx.release(tokens);
        self.docs_in_segment += 1;
        if self.docs_in_segment >= self.params.segment_flush_docs {
            self.flush_segment(ctx);
        }
    }

    fn flush_segment(&mut self, ctx: &mut MutatorCtx<'_>) {
        let ids = self.ids();
        let classes = self.classes();
        let annotate = self.annotate;
        let meta = ctx.call(ids.cs_flush, |ctx| {
            ctx.work(2_000_000);
            if annotate {
                ctx.alloc_annotated(ids.site_segment, classes.segment, 0, 64, DICT_GEN)
            } else {
                ctx.alloc(ids.site_segment, classes.segment, 0, 64)
            }
        });
        // The epoch: every posting buffer of this segment dies together.
        for h in self.segment_postings.drain(..) {
            ctx.release(h);
        }
        self.docs_in_segment = 0;
        self.segments.push(meta);
        self.flushes += 1;
        if self.segments.len() > 10 {
            let merged = ctx.call(ids.cs_merge, |ctx| {
                ctx.work(4_000_000);
                if annotate {
                    ctx.alloc_annotated(ids.site_segment, classes.segment, 0, 96, DICT_GEN)
                } else {
                    ctx.alloc(ids.site_segment, classes.segment, 0, 96)
                }
            });
            for old in self.segments.drain(..5) {
                ctx.release(old);
            }
            self.segments.insert(0, merged);
            self.merges += 1;
        }
    }

    fn search(&mut self, ctx: &mut MutatorCtx<'_>) {
        let ids = self.ids();
        let classes = self.classes();
        // A 2–4 term query; transient hit-list and scoring buffers.
        let nterms = self.rng.gen_range(2..=4);
        let hits = ctx.call(ids.cs_search, |ctx| {
            ctx.work(nterms * 4_000);
            ctx.alloc(ids.site_hits, classes.hits, 0, 64)
        });
        for _ in 0..nterms {
            let term = self.terms.sample(&mut self.rng);
            if self.dictionary.contains_key(&term) {
                ctx.call(ids.cs_score, |ctx| ctx.work(2_000));
            }
        }
        ctx.release(hits);
    }
}

impl Workload for LuceneWorkload {
    fn name(&self) -> String {
        "Lucene".to_string()
    }

    fn profiling_filters(&self) -> PackageFilters {
        // Paper Table 1: lucene.store.
        PackageFilters::include(&["lucene.store"])
    }

    fn annotation_count(&self) -> usize {
        // posting, dict, segment (flush), segment (merge).
        4
    }

    fn set_annotations(&mut self, on: bool) {
        self.annotate = on;
    }

    fn declare_program(&mut self, b: &mut ProgramBuilder) {
        let writer = b.method("lucene.index.IndexWriter::addDocument", 500, false);
        let analyze = b.method("lucene.analysis.Analyzer::tokenStream", 200, false);
        let index_doc = b.method("lucene.index.DocConsumer::processDocument", 300, false);
        let add_posting = b.method("lucene.store.PostingsArray::grow", 80, false);
        let norm = b.method("lucene.store.Norms::encode", 10, true); // inlined
        let flush = b.method("lucene.store.SegmentWriter::flush", 400, false);
        let merge = b.method("lucene.store.SegmentMerger::merge", 450, false);
        let search = b.method("lucene.search.IndexSearcher::search", 350, false);
        let score = b.method("lucene.search.Scorer::score", 90, false);

        let ids = Ids {
            cs_analyze: b.call_site(writer, analyze),
            cs_index_doc: b.call_site(writer, index_doc),
            cs_add_posting: b.call_site(index_doc, add_posting),
            cs_flush: b.call_site(index_doc, flush),
            cs_merge: b.call_site(flush, merge),
            cs_search: b.call_site(writer, search),
            cs_score: b.call_site(search, score),
            cs_norm: b.call_site(index_doc, norm),
            site_tokens: b.alloc_site(analyze, 3),
            site_posting: b.alloc_site(add_posting, 5),
            site_dict: b.alloc_site(add_posting, 9),
            site_segment: b.alloc_site(flush, 14),
            site_hits: b.alloc_site(search, 7),
        };
        self.ids = Some(ids);
    }

    fn setup(&mut self, rt: &mut JvmRuntime) {
        self.classes = Some(Classes {
            tokens: rt.vm.env.heap.classes.register("lucene.analysis.TokenStream"),
            posting: rt.vm.env.heap.classes.register("lucene.store.PostingsArray"),
            dict: rt.vm.env.heap.classes.register("lucene.store.TermDictEntry"),
            segment: rt.vm.env.heap.classes.register("lucene.store.SegmentInfo"),
            hits: rt.vm.env.heap.classes.register("lucene.search.TopDocs"),
        });
    }

    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64 {
        let write: bool = self.rng.gen_bool(self.params.write_fraction);
        if write {
            self.index_document(ctx);
        } else {
            self.search(ctx);
        }
        ctx.idle(self.params.op_pacing_ns);
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{execute, RunBudget};
    use rolp::runtime::{CollectorKind, RuntimeConfig};
    use rolp_heap::HeapConfig;

    fn small() -> LuceneParams {
        LuceneParams {
            segment_flush_docs: 300,
            vocabulary: 2_000,
            doc_words: 24,
            op_pacing_ns: 1_000,
            ..Default::default()
        }
    }

    fn config(kind: CollectorKind) -> RuntimeConfig {
        RuntimeConfig {
            collector: kind,
            heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 24 << 20 },
            ..Default::default()
        }
    }

    #[test]
    fn indexes_searches_and_flushes() {
        let mut w = LuceneWorkload::new(small());
        let out = execute(&mut w, config(CollectorKind::G1), &RunBudget::smoke(4_000));
        assert_eq!(out.report.ops, 4_000);
        assert!(w.flushes >= 1, "segment flush expected");
        assert!(!w.dictionary.is_empty());
    }

    #[test]
    fn rolp_learns_posting_lifetimes() {
        let mut w = LuceneWorkload::new(small());
        let out = execute(&mut w, config(CollectorKind::RolpNg2c), &RunBudget::smoke(30_000));
        let rolp = out.report.rolp.expect("rolp stats");
        assert!(rolp.profiled_allocations > 0);
        // Only lucene.store methods are inside the filter.
        assert!(rolp.unprofiled_allocations > 0, "analysis chain is filtered out");
    }
}
