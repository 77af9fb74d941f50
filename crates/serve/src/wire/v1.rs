//! Version-1 wire format: the explicit request/response structs behind
//! `/v1/predict`, `/v1/advise`, and `/v1/search` — one place where the
//! field set, the parse rules, and the byte layout live, shared
//! verbatim by the HTTP server and the CLI's `--json` mode.
//!
//! Versioning discipline: optional members are *omitted* when absent,
//! never emitted as `null`, so adding one keeps every pre-existing
//! exchange byte-identical. The [`PredictRequest::config`] /
//! [`RankRequest::config`] tenant selector follows the same rule as the
//! `"partial"` response member: a request without it parses (and a
//! response never echoes it), so clients written against the
//! single-config server keep working unchanged against a multi-tenant
//! one.

use hms_core::EngineStats;
use hms_kernels::Scale;
use hms_types::MemorySpace;

use crate::api::ApiError;
use crate::wire::Json;

fn obj_members<'j>(v: &'j Json, what: &str) -> Result<&'j [(String, Json)], ApiError> {
    v.as_obj()
        .ok_or_else(|| ApiError::BadRequest(format!("{what} must be a JSON object")))
}

fn field_str(v: &Json, key: &str) -> Result<String, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError::BadRequest(format!("missing field `{key}`")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::BadRequest(format!("field `{key}` must be a string")))
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ApiError::BadRequest(format!("field `{key}` must be a string"))),
    }
}

fn opt_scale(v: &Json) -> Result<Scale, ApiError> {
    match v.get("scale") {
        None => Ok(Scale::Full),
        Some(s) => {
            let s = s
                .as_str()
                .ok_or_else(|| ApiError::BadRequest("field `scale` must be a string".into()))?;
            Scale::parse(s)
                .ok_or_else(|| ApiError::BadRequest(format!("unknown scale `{s}` (test|full)")))
        }
    }
}

fn opt_usize(v: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_usize().ok_or_else(|| {
            ApiError::BadRequest(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

/// Optional non-negative integer with no default — absent stays `None`.
fn opt_usize_maybe(v: &Json, key: &str) -> Result<Option<usize>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_usize().map(Some).ok_or_else(|| {
            ApiError::BadRequest(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

/// Optional `u64` (JSON numbers are f64, so values are exact up to
/// 2^53 — plenty for a search seed).
fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_usize().map(|n| Some(n as u64)).ok_or_else(|| {
            ApiError::BadRequest(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<bool, ApiError> {
    match v.get(key) {
        None => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| ApiError::BadRequest(format!("field `{key}` must be a boolean"))),
    }
}

fn reject_unknown(v: &Json, allowed: &[&str], what: &str) -> Result<(), ApiError> {
    for (k, _) in obj_members(v, what)? {
        if !allowed.contains(&k.as_str()) {
            return Err(ApiError::BadRequest(format!(
                "unknown field `{k}` in {what} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn parse_space(s: &str) -> Result<MemorySpace, ApiError> {
    MemorySpace::from_short(s)
        .ok_or_else(|| ApiError::BadRequest(format!("unknown space `{s}` (use G, T, 2T, C, or S)")))
}

/// `POST /v1/predict` — one target placement of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    pub kernel: String,
    pub scale: Scale,
    /// `array name -> space` moves applied on the default placement.
    pub moves: Vec<(String, MemorySpace)>,
    /// Named GPU configuration (tenant) to advise against; `None`
    /// selects the server's default tenant.
    pub config: Option<String>,
}

impl PredictRequest {
    /// Parse a predict request body. Moves come either as a `"moves"`
    /// array of `{"array": .., "space": ..}` objects or a `"placement"`
    /// object of `name -> space` pairs; both use the paper's short space
    /// notation (`G`, `T`, `2T`, `C`, `S`).
    pub fn from_json(v: &Json) -> Result<PredictRequest, ApiError> {
        reject_unknown(
            v,
            &["kernel", "scale", "moves", "placement", "config"],
            "predict request",
        )?;
        let kernel = field_str(v, "kernel")?;
        let scale = opt_scale(v)?;
        let config = opt_str(v, "config")?;
        let mut moves = Vec::new();
        if let Some(list) = v.get("moves") {
            let list = list
                .as_arr()
                .ok_or_else(|| ApiError::BadRequest("field `moves` must be an array".into()))?;
            for m in list {
                reject_unknown(m, &["array", "space"], "move")?;
                moves.push((
                    field_str(m, "array")?,
                    parse_space(&field_str(m, "space")?)?,
                ));
            }
        }
        if let Some(pm) = v.get("placement") {
            for (name, space) in obj_members(pm, "field `placement`")? {
                let space = space.as_str().ok_or_else(|| {
                    ApiError::BadRequest(format!("placement of `{name}` must be a string"))
                })?;
                moves.push((name.clone(), parse_space(space)?));
            }
        }
        if moves.is_empty() {
            return Err(ApiError::BadRequest(
                "predict needs `moves` or `placement`".into(),
            ));
        }
        Ok(PredictRequest {
            kernel,
            scale,
            moves,
            config,
        })
    }

    /// The request as wire JSON (what a client would send). The
    /// `config` member is emitted only when present — absent keeps the
    /// pre-tenant byte layout.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("kernel".into(), Json::str(&self.kernel)),
            ("scale".into(), Json::str(self.scale.as_str())),
        ];
        if let Some(cfg) = &self.config {
            members.push(("config".into(), Json::str(cfg)));
        }
        members.push((
            "moves".into(),
            Json::Arr(
                self.moves
                    .iter()
                    .map(|(name, space)| {
                        Json::Obj(vec![
                            ("array".into(), Json::str(name)),
                            ("space".into(), Json::str(space.short())),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(members)
    }
}

/// `POST /v1/advise` and `POST /v1/search` — rank the read-only
/// placement space of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRequest {
    pub kernel: String,
    pub scale: Scale,
    pub top: usize,
    /// Ask for the `branch_and_bound` spelling of the exhaustive search
    /// (mirrors `hms search --prune`): same ranking, that wire name.
    /// Always `false` for `/v1/advise`.
    pub prune: bool,
    /// Worker threads for candidate evaluation (0 = all cores). Does not
    /// affect the response bytes — evaluation is thread-deterministic.
    pub threads: usize,
    /// Named GPU configuration (tenant); `None` = default tenant.
    pub config: Option<String>,
    /// Explicit strategy spelling (`beam`, `halving`, `local`, `bnb`,
    /// `exhaustive`); `None` falls back to the `prune` flag. `/v1/search`
    /// only. Mutually exclusive with `prune: true`.
    pub strategy: Option<String>,
    /// Local-search seed; only legal with `"strategy": "local"`.
    pub seed: Option<u64>,
    /// Beam width; only legal with `"strategy": "beam"`.
    pub beam: Option<usize>,
}

impl RankRequest {
    /// Parse an advise/search request body. `allow_search_knobs` gates
    /// the `prune`, `threads`, `strategy`, `seed`, and `beam` fields
    /// (`/v1/advise` rejects them, like `hms advise` has no `--prune`).
    pub fn from_json(v: &Json, allow_search_knobs: bool) -> Result<RankRequest, ApiError> {
        let allowed: &[&str] = if allow_search_knobs {
            &[
                "kernel", "scale", "top", "prune", "threads", "config", "strategy", "seed", "beam",
            ]
        } else {
            &["kernel", "scale", "top", "config"]
        };
        reject_unknown(v, allowed, "rank request")?;
        let req = RankRequest {
            kernel: field_str(v, "kernel")?,
            scale: opt_scale(v)?,
            top: opt_usize(v, "top", 5)?,
            prune: allow_search_knobs && opt_bool(v, "prune")?,
            threads: if allow_search_knobs {
                opt_usize(v, "threads", 1)?
            } else {
                1
            },
            config: opt_str(v, "config")?,
            strategy: if allow_search_knobs {
                opt_str(v, "strategy")?
            } else {
                None
            },
            seed: if allow_search_knobs {
                opt_u64(v, "seed")?
            } else {
                None
            },
            beam: if allow_search_knobs {
                opt_usize_maybe(v, "beam")?
            } else {
                None
            },
        };
        // Fail structurally-contradictory requests at the parse edge so
        // they can never reach the cache key.
        req.resolve_strategy()?;
        Ok(req)
    }

    /// The [`hms_core::SearchStrategy`] this request asks for.
    /// `strategy` (with its knobs) wins; otherwise `prune` picks the
    /// `branch_and_bound` spelling over `exhaustive`.
    pub fn resolve_strategy(&self) -> Result<hms_core::SearchStrategy, ApiError> {
        use hms_core::SearchStrategy;
        match &self.strategy {
            Some(name) => {
                if self.prune {
                    return Err(ApiError::BadRequest(
                        "`prune` and `strategy` are mutually exclusive".into(),
                    ));
                }
                SearchStrategy::parse(name, self.beam, self.seed).map_err(ApiError::BadRequest)
            }
            None if self.beam.is_some() => Err(ApiError::BadRequest(
                "field `beam` requires `\"strategy\": \"beam\"`".into(),
            )),
            None if self.seed.is_some() => Err(ApiError::BadRequest(
                "field `seed` requires `\"strategy\": \"local\"`".into(),
            )),
            None if self.prune => Ok(SearchStrategy::BranchAndBound),
            None => Ok(SearchStrategy::Exhaustive),
        }
    }
}

/// One placement spelled the way every response spells it: `array name
/// -> short space`, in array-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementV1(pub Vec<(String, MemorySpace)>);

impl PlacementV1 {
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, space)| (name.clone(), Json::str(space.short())))
                .collect(),
        )
    }
}

/// `POST /v1/predict` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    pub kernel: String,
    pub scale: Scale,
    pub placement: PlacementV1,
    pub predicted_cycles: f64,
    pub t_comp: f64,
    pub t_mem: f64,
    pub t_overlap: f64,
    pub sample_measured_cycles: f64,
}

impl PredictResponse {
    /// The exact response byte layout (member order is the wire
    /// contract; [`Json::encode_pretty`] is deterministic).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kernel".into(), Json::str(&self.kernel)),
            ("scale".into(), Json::str(self.scale.as_str())),
            ("placement".into(), self.placement.to_json()),
            ("predicted_cycles".into(), Json::Num(self.predicted_cycles)),
            ("t_comp".into(), Json::Num(self.t_comp)),
            ("t_mem".into(), Json::Num(self.t_mem)),
            ("t_overlap".into(), Json::Num(self.t_overlap)),
            (
                "sample_measured_cycles".into(),
                Json::Num(self.sample_measured_cycles),
            ),
        ])
    }
}

/// One entry of a ranked response.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntry {
    pub placement: PlacementV1,
    pub predicted_cycles: f64,
}

/// `POST /v1/advise` / `POST /v1/search` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct RankResponse {
    pub kernel: String,
    pub scale: Scale,
    /// [`SearchStrategy::name`](hms_core::SearchStrategy::name):
    /// `"exhaustive"`, `"branch_and_bound"`, `"beam"`,
    /// `"successive_halving"`, or `"local_search"`.
    pub strategy: &'static str,
    /// Candidates actually ranked (before the `top` cut).
    pub ranked_total: usize,
    pub ranked: Vec<RankedEntry>,
    /// The search hit its deadline and this is best-so-far. Omitted
    /// from the wire when `false` — finished responses are
    /// byte-identical whether or not a deadline was set.
    pub partial: bool,
    /// `Some(gap_upper_bound)` when the degradation ladder downgraded
    /// the requested strategy: the wire gets `"degraded": true` plus the
    /// reported optimality-gap upper bound of the strategy actually run
    /// (whose name the `strategy` member already carries). Omitted
    /// entirely when `None`, keeping normal responses byte-identical.
    pub degraded: Option<f64>,
    /// The engine's deterministic counters (`/v1/search` only).
    pub stats: Option<EngineStats>,
}

impl RankResponse {
    pub fn to_json(&self) -> Json {
        let ranked: Vec<Json> = self
            .ranked
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("placement".into(), r.placement.to_json()),
                    ("predicted_cycles".into(), Json::Num(r.predicted_cycles)),
                ])
            })
            .collect();
        let mut members = vec![
            ("kernel".into(), Json::str(&self.kernel)),
            ("scale".into(), Json::str(self.scale.as_str())),
            ("strategy".into(), Json::str(self.strategy)),
            ("ranked_total".into(), Json::num(self.ranked_total as u32)),
            ("ranked".into(), Json::Arr(ranked)),
        ];
        if self.partial {
            members.push(("partial".into(), Json::Bool(true)));
        }
        if let Some(gap) = self.degraded {
            members.push(("degraded".into(), Json::Bool(true)));
            members.push(("gap_upper_bound".into(), Json::Num(gap)));
        }
        if let Some(s) = &self.stats {
            members.push((
                "stats".into(),
                Json::Obj({
                    let mut stats = vec![
                        (
                            "candidates_enumerated".into(),
                            Json::Num(s.candidates_enumerated as f64),
                        ),
                        (
                            "candidates_evaluated".into(),
                            Json::Num(s.candidates_evaluated as f64),
                        ),
                        (
                            "candidates_pruned".into(),
                            Json::Num(s.candidates_pruned as f64),
                        ),
                        (
                            "skeletons_built".into(),
                            Json::Num(s.skeletons_built as f64),
                        ),
                        ("full_rewrites".into(), Json::Num(s.full_rewrites as f64)),
                        (
                            "delta_cache_hits".into(),
                            Json::Num(s.delta_cache_hits as f64),
                        ),
                        (
                            "exact_fallbacks".into(),
                            Json::Num(s.exact_fallbacks as f64),
                        ),
                        ("rewrite_reduction".into(), Json::Num(s.rewrite_reduction())),
                    ];
                    // Anytime-only members append after the legacy block so
                    // exact-strategy responses stay byte-identical.
                    if s.anytime() {
                        stats.push((
                            "candidates_visited".into(),
                            Json::Num(s.candidates_visited as f64),
                        ));
                        stats.push(("gap_upper_bound".into(), Json::Num(s.gap_upper_bound)));
                    }
                    stats
                }),
            ));
        }
        Json::Obj(members)
    }
}

/// The one error body shape every non-200 JSON response uses.
pub fn error_body(msg: &str) -> String {
    Json::Obj(vec![("error".into(), Json::str(msg))]).encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode;

    #[test]
    fn absent_config_keeps_request_byte_identity() {
        // The same request with and without the member must differ
        // *only* by it — and absence must round-trip to absence.
        let without =
            decode(r#"{"kernel":"spmv","scale":"test","moves":[{"array":"d_vec","space":"T"}]}"#)
                .unwrap();
        let q = PredictRequest::from_json(&without).unwrap();
        assert_eq!(q.config, None);
        let encoded = q.to_json().encode_pretty();
        assert!(
            !encoded.contains("config"),
            "absent member leaked: {encoded}"
        );

        let with = decode(
            r#"{"kernel":"spmv","scale":"test","config":"k80","moves":[{"array":"d_vec","space":"T"}]}"#,
        )
        .unwrap();
        let q2 = PredictRequest::from_json(&with).unwrap();
        assert_eq!(q2.config.as_deref(), Some("k80"));
        assert_eq!(q2.kernel, q.kernel);
        assert_eq!(q2.moves, q.moves);
        assert!(q2.to_json().encode_pretty().contains("\"config\": \"k80\""));
    }

    #[test]
    fn rank_request_accepts_config_on_both_endpoints() {
        let v = decode(r#"{"kernel":"vecadd","config":"c2050"}"#).unwrap();
        assert_eq!(
            RankRequest::from_json(&v, false).unwrap().config.as_deref(),
            Some("c2050")
        );
        assert_eq!(
            RankRequest::from_json(&v, true).unwrap().config.as_deref(),
            Some("c2050")
        );
        // Still typed: a non-string config is rejected.
        let bad = decode(r#"{"kernel":"vecadd","config":7}"#).unwrap();
        assert!(RankRequest::from_json(&bad, false).is_err());
    }

    #[test]
    fn predict_response_member_order_is_pinned() {
        let resp = PredictResponse {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            placement: PlacementV1(vec![("a".into(), MemorySpace::Texture1D)]),
            predicted_cycles: 100.0,
            t_comp: 40.0,
            t_mem: 80.0,
            t_overlap: 20.0,
            sample_measured_cycles: 123.0,
        };
        let text = resp.to_json().encode_pretty();
        let order = [
            "kernel",
            "scale",
            "placement",
            "predicted_cycles",
            "t_comp",
            "t_mem",
            "t_overlap",
            "sample_measured_cycles",
        ];
        let mut last = 0;
        for key in order {
            let at = text.find(&format!("\"{key}\"")).expect(key);
            assert!(at > last, "member `{key}` out of order");
            last = at;
        }
    }

    #[test]
    fn rank_response_omits_partial_and_stats_when_absent() {
        let resp = RankResponse {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            strategy: "exhaustive",
            ranked_total: 2,
            ranked: vec![RankedEntry {
                placement: PlacementV1(vec![("a".into(), MemorySpace::Global)]),
                predicted_cycles: 10.0,
            }],
            partial: false,
            degraded: None,
            stats: None,
        };
        let text = resp.to_json().encode_pretty();
        assert!(!text.contains("partial"));
        assert!(!text.contains("degraded"));
        assert!(!text.contains("stats"));
        let partial = RankResponse {
            partial: true,
            stats: Some(EngineStats::default()),
            ..resp
        };
        let text = partial.to_json().encode_pretty();
        assert!(text.contains("\"partial\": true"));
        assert!(text.contains("\"rewrite_reduction\""));
        // Exact strategies never emit the anytime-only stats members.
        assert!(!text.contains("candidates_visited"));
        assert!(!text.contains("gap_upper_bound"));
    }

    #[test]
    fn degraded_member_appends_after_partial_with_its_gap() {
        let resp = RankResponse {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            strategy: "beam",
            ranked_total: 1,
            ranked: vec![],
            partial: true,
            degraded: Some(0.125),
            stats: None,
        };
        let text = resp.to_json().encode_pretty();
        let partial = text.find("\"partial\"").unwrap();
        let degraded = text.find("\"degraded\": true").unwrap();
        let gap = text.find("\"gap_upper_bound\": 0.125").unwrap();
        assert!(partial < degraded && degraded < gap, "order broken: {text}");
        // Absent means absent — no null, no false.
        let normal = RankResponse {
            partial: false,
            degraded: None,
            ..resp
        };
        assert!(!normal.to_json().encode_pretty().contains("degraded"));
    }

    #[test]
    fn anytime_stats_members_append_after_the_legacy_block() {
        let stats = EngineStats {
            strategy: "beam",
            candidates_visited: 17,
            gap_upper_bound: 0.25,
            ..EngineStats::default()
        };
        assert!(stats.anytime());
        let resp = RankResponse {
            kernel: "wide8".into(),
            scale: Scale::Test,
            strategy: "beam",
            ranked_total: 1,
            ranked: vec![],
            partial: false,
            degraded: None,
            stats: Some(stats),
        };
        let text = resp.to_json().encode_pretty();
        let legacy = text.find("\"rewrite_reduction\"").unwrap();
        let visited = text.find("\"candidates_visited\"").unwrap();
        let gap = text.find("\"gap_upper_bound\"").unwrap();
        assert!(legacy < visited && visited < gap, "order broken: {text}");
    }

    #[test]
    fn search_strategy_fields_parse_and_resolve() {
        use hms_core::SearchStrategy;
        let v = decode(r#"{"kernel":"wide8","strategy":"beam","beam":4}"#).unwrap();
        let q = RankRequest::from_json(&v, true).unwrap();
        assert_eq!(
            q.resolve_strategy().unwrap(),
            SearchStrategy::Beam { width: 4 }
        );
        let v = decode(r#"{"kernel":"wide8","strategy":"local","seed":9}"#).unwrap();
        let q = RankRequest::from_json(&v, true).unwrap();
        assert_eq!(
            q.resolve_strategy().unwrap(),
            SearchStrategy::LocalSearch { seed: 9 }
        );
        // The legacy spellings keep resolving as before.
        let v = decode(r#"{"kernel":"wide8","prune":true}"#).unwrap();
        let q = RankRequest::from_json(&v, true).unwrap();
        assert_eq!(
            q.resolve_strategy().unwrap(),
            SearchStrategy::BranchAndBound
        );
        let v = decode(r#"{"kernel":"wide8"}"#).unwrap();
        let q = RankRequest::from_json(&v, true).unwrap();
        assert_eq!(q.resolve_strategy().unwrap(), SearchStrategy::Exhaustive);
    }

    #[test]
    fn contradictory_strategy_requests_fail_at_the_parse_edge() {
        for body in [
            // prune and strategy are mutually exclusive.
            r#"{"kernel":"wide8","prune":true,"strategy":"beam"}"#,
            // knobs without their strategy.
            r#"{"kernel":"wide8","beam":4}"#,
            r#"{"kernel":"wide8","seed":7}"#,
            // knobs on the wrong strategy.
            r#"{"kernel":"wide8","strategy":"local","beam":4}"#,
            r#"{"kernel":"wide8","strategy":"beam","seed":7}"#,
            // unknown strategy / zero width.
            r#"{"kernel":"wide8","strategy":"warp_drive"}"#,
            r#"{"kernel":"wide8","strategy":"beam","beam":0}"#,
        ] {
            let v = decode(body).unwrap();
            assert!(
                RankRequest::from_json(&v, true).is_err(),
                "accepted: {body}"
            );
        }
        // /v1/advise rejects the knobs outright as unknown fields.
        let v = decode(r#"{"kernel":"wide8","strategy":"beam"}"#).unwrap();
        assert!(RankRequest::from_json(&v, false).is_err());
    }
}
