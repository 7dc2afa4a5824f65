//! JSON serialization of the network-layer link types, for the
//! scenario-file surface (`hisq run`).
//!
//! Format (all decoders reject unknown fields):
//!
//! ```json
//! {"serialization_ns": 100, "capacity": 2,
//!  "drop": {"loss_ppm": 10000, "seed": 7, "max_attempts": 16}}
//! ```
//!
//! A [`FabricMap`] only serializes: scenario files describe fabrics as
//! a default model plus per-edge overrides, and the facade hashes
//! [`FabricMap::to_json`] into its compile key.

use hisq_core::NodeAddr;
use hisq_json::{Json, JsonError, ObjReader};

use crate::topology::{DropPolicy, FabricMap, LinkModel};

impl DropPolicy {
    /// Serializes the loss model.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("loss_ppm".into(), self.loss_ppm.into()),
            ("seed".into(), self.seed.into()),
            ("max_attempts".into(), self.max_attempts.into()),
        ])
    }

    /// Parses a loss model serialized by [`DropPolicy::to_json`].
    /// Omitted fields take the [`DropPolicy::default`] values.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, or `max_attempts == 0`.
    pub fn from_json(value: &Json, path: &str) -> Result<DropPolicy, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut policy = DropPolicy::default();
        if let Some(v) = obj.optional("loss_ppm") {
            policy.loss_ppm = v.as_u32(&obj.field_path("loss_ppm"))?;
        }
        if let Some(v) = obj.optional("seed") {
            policy.seed = v.as_u64(&obj.field_path("seed"))?;
        }
        if let Some(v) = obj.optional("max_attempts") {
            policy.max_attempts = v.as_u32(&obj.field_path("max_attempts"))?;
        }
        if policy.max_attempts == 0 {
            return Err(JsonError::decode(
                obj.field_path("max_attempts"),
                "max_attempts must be at least 1",
            ));
        }
        obj.reject_unknown()?;
        Ok(policy)
    }
}

impl LinkModel {
    /// Serializes the contention model. The `drop` field is omitted
    /// when the link is lossless, so the transparent default renders as
    /// `{"serialization_ns":0,"capacity":1}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("serialization_ns".into(), self.serialization_ns.into()),
            ("capacity".into(), self.capacity.into()),
        ];
        if let Some(drop) = &self.drop {
            fields.push(("drop".into(), drop.to_json()));
        }
        Json::Object(fields)
    }

    /// Parses a contention model serialized by [`LinkModel::to_json`].
    /// Omitted fields take the transparent [`LinkModel::default`]
    /// values; `"drop": null` also means lossless.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, or `capacity == 0`.
    pub fn from_json(value: &Json, path: &str) -> Result<LinkModel, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut model = LinkModel::default();
        if let Some(v) = obj.optional("serialization_ns") {
            model.serialization_ns = v.as_u64(&obj.field_path("serialization_ns"))?;
        }
        if let Some(v) = obj.optional("capacity") {
            model.capacity = v.as_u32(&obj.field_path("capacity"))?;
        }
        if let Some(v) = obj.optional("drop") {
            if !matches!(v, Json::Null) {
                model.drop = Some(DropPolicy::from_json(v, &obj.field_path("drop"))?);
            }
        }
        if model.capacity == 0 {
            return Err(JsonError::decode(
                obj.field_path("capacity"),
                "capacity must be at least 1",
            ));
        }
        obj.reject_unknown()?;
        Ok(model)
    }
}

/// Serializes one per-edge override as
/// `{"from": a, "to": b, "model": {...}}`.
pub fn edge_override_to_json(from: NodeAddr, to: NodeAddr, model: &LinkModel) -> Json {
    Json::Object(vec![
        ("from".into(), from.into()),
        ("to".into(), to.into()),
        ("model".into(), model.to_json()),
    ])
}

/// Parses one per-edge override serialized by [`edge_override_to_json`].
pub fn edge_override_from_json(
    value: &Json,
    path: &str,
) -> Result<(NodeAddr, NodeAddr, LinkModel), JsonError> {
    let mut obj = ObjReader::new(value, path)?;
    let from = obj.required("from")?.as_u16(&obj.field_path("from"))?;
    let to = obj.required("to")?.as_u16(&obj.field_path("to"))?;
    let model = LinkModel::from_json(obj.required("model")?, &obj.field_path("model"))?;
    obj.reject_unknown()?;
    Ok((from, to, model))
}

impl FabricMap {
    /// Serializes the fabric map. The `overrides` field is omitted when
    /// the map is uniform, so a uniform fabric renders exactly as
    /// `{"default": <link model>}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("default".into(), self.default_model().to_json())];
        if !self.is_uniform() {
            fields.push((
                "overrides".into(),
                Json::Array(
                    self.overrides()
                        .map(|(f, t, m)| edge_override_to_json(f, t, &m))
                        .collect(),
                ),
            ));
        }
        Json::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use crate::{DropPolicy, FabricMap, LinkModel};
    use hisq_json::Json;

    #[test]
    fn link_model_round_trips() {
        for model in [
            LinkModel::default(),
            LinkModel::serialized(100).with_capacity(2),
            LinkModel::serialized(25).with_drop(DropPolicy {
                loss_ppm: 50_000,
                seed: u64::MAX,
                max_attempts: 3,
            }),
        ] {
            let text = model.to_json().to_string_compact();
            let back = LinkModel::from_json(&Json::parse(&text).unwrap(), "lm").unwrap();
            assert_eq!(model, back, "{text}");
        }
    }

    #[test]
    fn link_model_rejects_bad_input() {
        for (text, needle) in [
            (r#"{"capacity": 0}"#, "capacity must be at least 1"),
            (r#"{"lanes": 4}"#, "unknown field `lanes`"),
            (
                r#"{"drop": {"max_attempts": 0}}"#,
                "max_attempts must be at least 1",
            ),
            (r#"{"drop": {"loss": 1}}"#, "lm.drop: unknown field `loss`"),
        ] {
            let err = LinkModel::from_json(&Json::parse(text).unwrap(), "lm").unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn fabric_map_to_json_omits_overrides_when_uniform() {
        let mut fabric = FabricMap::uniform(LinkModel::serialized(8));
        // Uniform maps render exactly as {"default": ...}.
        assert_eq!(
            fabric.to_json().to_string_compact(),
            r#"{"default":{"serialization_ns":8,"capacity":1}}"#
        );
        fabric.set_edge(0, 1, LinkModel::serialized(64).with_capacity(2));
        assert_eq!(
            fabric.to_json().to_string_compact(),
            r#"{"default":{"serialization_ns":8,"capacity":1},"overrides":[{"from":0,"to":1,"model":{"serialization_ns":64,"capacity":2}}]}"#
        );
    }
}
