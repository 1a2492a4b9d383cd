//! A catalogue of ML models and the collective buffer sizes they induce.
//!
//! The paper's motivation (§2): models no longer fit in one accelerator, so
//! training/inference distribute across chips and synchronize gradients or
//! activations with collectives whose buffer size N is set by the model.
//! These entries give the experiments realistic N values; the cost model
//! only ever sees bytes.

/// Bytes per parameter for common training number formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit floats.
    F32,
    /// 16-bit floats (fp16/bf16).
    F16,
    /// 8-bit formats.
    F8,
}

impl Dtype {
    /// Size of one element, bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Dtype::F32 => 4,
            Dtype::F16 => 2,
            Dtype::F8 => 1,
        }
    }
}

/// A model whose gradients are synchronized with AllReduce.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Trainable parameters.
    pub parameters: u64,
    /// Gradient number format.
    pub dtype: Dtype,
    /// For MoE models: expert count and top-k gating (dense models: None).
    pub moe: Option<(usize, usize)>,
}

impl ModelSpec {
    /// Bytes of one full-gradient AllReduce buffer.
    pub fn gradient_bytes(&self) -> u64 {
        self.parameters * self.dtype.bytes()
    }
}

/// The catalogue used across examples and experiments.
pub fn catalogue() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "resnet50",
            parameters: 25_600_000,
            dtype: Dtype::F32,
            moe: None,
        },
        ModelSpec {
            name: "gpt2-xl",
            parameters: 1_500_000_000,
            dtype: Dtype::F16,
            moe: None,
        },
        ModelSpec {
            name: "llama-70b",
            parameters: 70_000_000_000,
            dtype: Dtype::F16,
            moe: None,
        },
        ModelSpec {
            name: "gpt3-175b",
            parameters: 175_000_000_000,
            dtype: Dtype::F16,
            moe: None,
        },
        ModelSpec {
            name: "mt-nlg-530b",
            parameters: 530_000_000_000,
            dtype: Dtype::F16,
            moe: None,
        },
        ModelSpec {
            name: "switch-moe-1.6t",
            parameters: 1_600_000_000_000,
            dtype: Dtype::F16,
            moe: Some((64, 1)),
        },
        ModelSpec {
            name: "mixtral-8x7b",
            parameters: 46_700_000_000,
            dtype: Dtype::F16,
            moe: Some((8, 2)),
        },
    ]
}

/// Look a model up by name.
pub fn by_name(name: &str) -> Option<ModelSpec> {
    catalogue().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_nonempty_and_unique() {
        let cat = catalogue();
        assert!(cat.len() >= 5);
        let mut names: Vec<_> = cat.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn gradient_sizes() {
        let gpt3 = by_name("gpt3-175b").unwrap();
        assert_eq!(gpt3.gradient_bytes(), 350_000_000_000); // 350 GB at fp16
        let resnet = by_name("resnet50").unwrap();
        assert_eq!(resnet.gradient_bytes(), 102_400_000);
    }

    #[test]
    fn moe_models_are_flagged() {
        assert!(by_name("mixtral-8x7b").unwrap().moe.is_some());
        assert!(by_name("gpt3-175b").unwrap().moe.is_none());
        assert!(by_name("nonexistent").is_none());
    }
}
